package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at. The
// tail of a sample is the highest of them with at least minBeyond
// samples above it, so it never rests on a handful of outliers.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// sample is a set of measurements in one unit (ms, µs, ...).
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// pct returns the p-th percentile by nearest rank: the smallest value
// with at least p% of the sample at or below it. NaN on an empty sample.
func (s sample) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	return c[rankOf(p, len(c))-1]
}

// rankOf is the 1-based nearest rank of percentile p in n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000…2)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the 50th percentile.
func (s sample) median() float64 { return s.pct(50) }

// tailPct picks the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it; ok is false when even the median
// has fewer than minBeyond samples beyond it.
func tailPct(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// tail returns the sample's tail value and the percentile it sits at.
func (s sample) tail() (v, p float64, ok bool) {
	p, ok = tailPct(len(s))
	if !ok {
		return math.NaN(), 0, false
	}
	return s.pct(p), p, true
}

// sum adds the sample up.
func (s sample) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// poolLatency summarises the instance times of a pool of programs, one
// sample per program. p50 is the mean over programs of each program's
// median. The tail is taken over every instance's time relative to its
// own program's median and scaled by p50: instances of one program do
// identical work, so their spread is the host's, while the programs'
// different lengths are averaged rather than read as a tail. pct is the
// tail's percentile and n the instance count it rests on.
func poolLatency(lat []sample) (p50, tail, pct float64, n int, ok bool) {
	var rel sample
	for _, s := range lat {
		if len(s) == 0 {
			return 0, 0, 0, 0, false
		}
		m := s.median()
		p50 += m / float64(len(lat))
		for _, v := range s {
			rel = append(rel, v/m)
		}
	}
	t, pct, ok := rel.tail()
	return p50, p50 * t, pct, len(rel), ok
}
