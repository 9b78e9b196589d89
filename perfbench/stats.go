package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a timing's tail may be reported at,
// highest first.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// rank is the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least ten of n samples beyond it. ok is false when even the median
// has fewer than ten samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted (0 when
// sorted is empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the median of xs without reordering them; the mean of
// the two middle values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timing summarises one set of latency samples the way every
// end-to-end timing is reported: the median, and the highest
// percentile with at least ten samples beyond it.
type timing struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	TailOK bool
}

func summarise(samplesMS []float64) timing {
	s := sortedCopy(samplesMS)
	t := timing{N: len(s), P50: percentile(s, 50)}
	t.TailP, t.TailOK = tailPercentile(len(s))
	if t.TailOK {
		t.Tail = percentile(s, t.TailP)
	}
	return t
}
