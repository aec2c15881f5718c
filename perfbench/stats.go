package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// tailBeyond is the number of samples that must lie above the reported
// tail percentile.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the tail latency of a sample set: the value at the highest
// percentile that still has tailBeyond samples above it.
type tail struct {
	Value  float64
	Pct    float64 // share of samples at or below Value, in percent
	N      int     // sample count
	Beyond int     // samples above Value
}

// tailOf selects the tail of xs. With n samples sorted ascending it is
// the sample at index n-1-tailBeyond, so exactly tailBeyond samples lie
// beyond it. That index sits at or above the median only from
// 2*tailBeyond+1 samples on; smaller sets have no such percentile and
// report their maximum instead, with Beyond 0. An empty set reports NaN.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i, beyond := n-1, 0
	if n >= 2*tailBeyond+1 {
		i, beyond = n-1-tailBeyond, tailBeyond
	}
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n, Beyond: beyond}
}

func (t tail) String() string {
	if t.Beyond == 0 {
		return fmt.Sprintf("max of n=%d (fewer than %d samples, no percentile has %d beyond)",
			t.N, 2*tailBeyond+1, tailBeyond)
	}
	return fmt.Sprintf("p%.1f of n=%d, %d samples beyond", t.Pct, t.N, t.Beyond)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
