package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile(nil) = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{5, 1, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if odd[0] != 5 {
		t.Errorf("median reordered its input: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}

func TestPerBlock(t *testing.T) {
	// Three full blocks with p50s 10, 20 and 1000 (one slow block), a
	// block too small to count, and samples outside every block.
	var samples []float64
	var blocks []int
	add := func(b int, v float64, n int) {
		for i := 0; i < n; i++ {
			samples = append(samples, v)
			blocks = append(blocks, b)
		}
	}
	add(0, 10, 100)
	add(1, 20, 100)
	add(2, 1000, 100)
	add(3, 1e9, 5)
	add(-1, 1e9, 500)
	got := perBlock(samples, blocks, 100, 0.5)
	if median(got) != 20 || len(got) != 3 {
		t.Errorf("perBlock p50s = %v, want 10, 20 and 1000 in some order", got)
	}
	// p99 per block: one outlier per block of 100 stays at the 100th rank.
	samples, blocks = nil, nil
	for b := 0; b < 3; b++ {
		add(b, 1, 99)
		add(b, float64(100*(b+1)), 1)
	}
	for _, v := range perBlock(samples, blocks, 100, 0.99) {
		if v != 1 {
			t.Errorf("block p99 = %v, want 1 (the 99th of 100 samples)", v)
		}
	}
}

func TestPerOp(t *testing.T) {
	if got := perOp(1000, 4); got != 250 {
		t.Errorf("perOp(1000, 4) = %v, want 250", got)
	}
	if got := perOp(1000, 0); !math.IsNaN(got) {
		t.Errorf("perOp with no ops = %v, want NaN", got)
	}
}

func TestResidual(t *testing.T) {
	// The host slows down in the third block; pairing each block with the
	// ladder measured right after it keeps the residual at 5.
	measured := []float64{40, 41, 80, 40}
	ladder := []float64{35, 36, 75, 35}
	res, double := residual(measured, ladder)
	if res != 5 || double {
		t.Errorf("residual = %v, %v; want 5, false", res, double)
	}
	// A ladder that times the envelope on its own and again inside the
	// transport round trip overshoots the whole.
	res, double = residual([]float64{40, 40, 40}, []float64{43, 44, 42})
	if res != -3 || !double {
		t.Errorf("residual = %v, %v; want -3, true", res, double)
	}
}

func TestBlockRatesAndLatencies(t *testing.T) {
	w := &window{
		bounds: []boundary{{at: 0, cpu: 0}, {at: 1e9, cpu: 2e9}, {at: 2e9, cpu: 3e9}},
	}
	for i := 0; i < 4; i++ { // block 0: 4 ops
		w.ops = append(w.ops, opRec{start: int64(i) * 1e8, dur: 10})
	}
	for i := 0; i < 2; i++ { // block 1: 2 ops, one failed
		w.ops = append(w.ops, opRec{start: 1e9 + int64(i)*1e8, dur: 20, failed: i == 1})
	}
	w.ops = append(w.ops, opRec{start: 2e9 + 5, dur: 30}) // after the last boundary
	rates, cpus := blockRates(w)
	if len(rates) != 2 || rates[0] != 4 || rates[1] != 2 || cpus[0] != 5e8 || cpus[1] != 5e8 {
		t.Errorf("blockRates = %v ops/s, %v ns/op; want [4 2], [5e8 5e8]", rates, cpus)
	}
	lat, blk := latencies(w)
	if lat[5] != 20 {
		t.Errorf("failed invocation latency = %v, want the 20 ns it took", lat[5])
	}
	if blk[0] != 0 || blk[4] != 1 || blk[6] != -1 {
		t.Errorf("blocks = %v, want 0 … 1 … -1", blk)
	}
}

func TestMoveStats(t *testing.T) {
	w := &window{
		bounds: []boundary{{at: 0}, {at: 1000}},
		ops: []opRec{
			{start: 0, dur: 5},
			{start: 100, dur: 40}, // starts during move 1
			{start: 120, dur: 90}, // starts during move 1: its stall
			{start: 300, dur: 7},  // starts after move 1 ends
		},
		moves: []moveRec{
			{start: 90, dur: 100},
			{start: 500, dur: 10, failed: true}, // no invocation starts during it
			{start: 2000, dur: 10},              // past the last boundary
		},
	}
	ms := moveStats(w, false, 1)
	if ms.moves != 3 || ms.stalls != 1 {
		t.Errorf("counted %d moves, %d stalls; want 3, 1", ms.moves, ms.stalls)
	}
	if len(ms.movesP50) != 1 || ms.movesP50[0] != 10 {
		t.Errorf("block move p50s = %v, want [10] (nearest-rank median of 100 and a failure after 10)", ms.movesP50)
	}
	if len(ms.stallsP50) != 1 || ms.stallsP50[0] != 90 {
		t.Errorf("block stall p50s = %v, want [90]", ms.stallsP50)
	}
	// Paired moves take their stall from the invocation right after each
	// one; the probe's blocks are runs of probeBlock moves.
	w.after = w.ops[:3]
	ms = moveStats(w, true, 1)
	if ms.stalls != 3 || len(ms.stallsP50) != 1 || ms.stallsP50[0] != 40 {
		t.Errorf("probe stalls: %d, p50s %v; want 3, [40]", ms.stalls, ms.stallsP50)
	}
	ms = moveStats(w, false, 1)
	if ms.stalls != 3 || len(ms.stallsP50) != 1 || ms.stallsP50[0] != 5 {
		t.Errorf("paired stalls: %d, p50s %v; want 3, [5] (block 0 holds 5 and 40; the last move is in no block)", ms.stalls, ms.stallsP50)
	}
}
