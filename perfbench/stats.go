package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// slice: the smallest sample with at least q·n samples at or below it, so
// the result is always a measured value. It returns NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the median of xs (the mean of the middle two for an even
// count), leaving xs unchanged. It returns NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perBlock groups samples by block index and returns quantile q of each
// block holding at least minN samples. A negative index marks a sample
// outside every complete block. A block below minN (one starved by a stall)
// is skipped, so a block p99 rests on at least minN/100 samples beyond it.
func perBlock(samples []float64, block []int, minN int, q float64) []float64 {
	groups := map[int][]float64{}
	for i, v := range samples {
		if block[i] >= 0 {
			groups[block[i]] = append(groups[block[i]], v)
		}
	}
	var per []float64
	for _, g := range groups {
		if len(g) < minN {
			continue
		}
		sort.Float64s(g)
		per = append(per, quantile(g, q))
	}
	return per
}

// perOp divides a process-wide total by the invocations it served. With no
// invocations there is no base, so the ratio is NaN rather than a made-up 0.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return math.NaN()
	}
	return total / float64(ops)
}

// residual pairs each block's measured end-to-end time with the ladder of
// layer costs measured right after that block and returns the median of the
// differences: the share no public function owns. A negative residual means
// the ladder counts some work twice (or a part was measured under other
// conditions than the whole), so doubleCounted reports it instead of
// letting it pass as a small number.
func residual(measured, ladder []float64) (res float64, doubleCounted bool) {
	diffs := make([]float64, len(measured))
	for i := range measured {
		diffs[i] = measured[i] - ladder[i]
	}
	res = median(diffs)
	return res, res < 0
}
