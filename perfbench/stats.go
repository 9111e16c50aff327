package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of a fixed ladder of quantiles that leaves at
// least ten samples above it, so a tail is never read off a handful of
// points; the median when even that is out of reach. The ladder keeps the
// reported percentile fixed while the sample count drifts a little between
// runs.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.75, 0.9, 0.95, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}
