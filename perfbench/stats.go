package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
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

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
