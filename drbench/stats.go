package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// percentile returns the q-quantile of xs and refuses when fewer than
// minBeyond samples lie above it: such a tail is a guess, not a measure.
func percentile(what string, xs []float64, q float64) (float64, error) {
	beyond := int(math.Floor(float64(len(xs)) * (1 - q)))
	if len(xs) == 0 || (q > 0.5 && beyond < minBeyond) {
		return 0, fmt.Errorf("%s: %d samples leave %d beyond p%g (need %d)", what, len(xs), beyond, q*100, minBeyond)
	}
	return quantile(xs, q), nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, reading 0/0 as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
