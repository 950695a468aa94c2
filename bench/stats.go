package main

import (
	"math"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of sorted (nearest-rank), 0 when empty.
func quantile[T uint32 | int64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func sortU32(v []uint32) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is how the benchmark contract measures spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}
