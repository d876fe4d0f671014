package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, untraced and traced, and checks that
// it passes its correctness checks and emits exactly the metrics
// BENCHMARK.json names: end-to-end ones finite and positive, per-layer ones
// finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, sp := range specs {
		for _, tr := range []bool{false, true} {
			sp, tr := sp, tr
			name := sp.name + map[bool]string{false: "/untraced", true: "/traced"}[tr]
			t.Run(name, func(t *testing.T) {
				cfg := config{spec: sp, seed: 7, window: 2500 * time.Millisecond, traced: tr, setups: 1, workDir: t.TempDir()}
				res, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatal("correctness check failed")
				}
				if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := endToEnd
				if tr {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", n)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", n, m.Value)
					case !tr && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
				}
				if tr {
					checkTracedShape(t, sp, res)
				}
			})
		}
	}
}

// checkTracedShape checks what the traced metrics must read by construction:
// no forwarding on the co-located path, exactly one hop on the remote one,
// and non-negative residuals.
func checkTracedShape(t *testing.T, sp spec, res *result) {
	fwd := res.Metrics["core.forwards_per_op"].Value
	switch sp.name {
	case "colocated_kv":
		if fwd != 0 {
			t.Errorf("core.forwards_per_op = %v on colocated_kv, want 0", fwd)
		}
	case "remote_kv":
		if fwd != 1 {
			t.Errorf("core.forwards_per_op = %v on remote_kv, want 1", fwd)
		}
	}
	for _, n := range []string{"core.local_residual_us", "core.remote_residual_us", "core.move_residual_us"} {
		if v := res.Metrics[n].Value; v < 0 {
			t.Errorf("%s = %v: the ladder counts some work twice", n, v)
		}
	}
}
