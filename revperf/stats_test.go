package main

import (
	"math"
	"testing"
)

// TestTailPercentileLeavesTenBeyond checks the tail rule: the reported
// percentile is the highest of the ladder with at least ten samples
// beyond it, and the next higher one would have fewer.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99},
	} {
		p, ok := tailPct(tc.n)
		if !ok || p != tc.want {
			t.Errorf("tailPct(%d) = %v, %v; want %v", tc.n, p, ok, tc.want)
			continue
		}
		if beyond := tc.n - rankOf(p, tc.n); beyond < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", tc.n, p, beyond, minBeyond)
		}
		for _, higher := range tailLadder {
			if higher > p && tc.n-rankOf(higher, tc.n) >= minBeyond {
				t.Errorf("n=%d: p%v also leaves %d beyond but p%v was chosen", tc.n, higher, tc.n-rankOf(higher, tc.n), p)
			}
		}
	}
	if _, ok := tailPct(19); ok {
		t.Error("19 samples cannot carry a tail: the median has only 9 beyond it")
	}
}

func TestTailValue(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s = append(s, float64(101-i)) // 100..1, unsorted order
	}
	v, p, ok := s.tail()
	if !ok || p != 90 || v != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (%v), want 90 at p90", v, p, ok)
	}
	if m := s.median(); m != 50 {
		t.Fatalf("median of 1..100 = %v, want 50", m)
	}
	if v, _, ok := (sample{1, 2, 3}).tail(); ok || !math.IsNaN(v) {
		t.Fatalf("a 3-sample tail should be refused, got %v", v)
	}
}

// TestPoolLatency: two programs of different length whose instances
// spread alike pool into their mean median and one shared relative tail.
func TestPoolLatency(t *testing.T) {
	var a, b sample
	for i := 1; i <= 20; i++ {
		a = append(a, 100+float64(i))     // median 110
		b = append(b, 2*(100+float64(i))) // median 220
	}
	p50, tail, pct, n, ok := poolLatency([]sample{a, b})
	if !ok || n != 40 || pct != 75 {
		t.Fatalf("pooled %d instances at p%v (%v), want 40 at p75", n, pct, ok)
	}
	if p50 != 165 {
		t.Fatalf("p50 = %v, want the mean of the medians, 165", p50)
	}
	if want := 165 * 115.0 / 110; math.Abs(tail-want) > 1e-9 {
		t.Fatalf("tail = %v, want %v (p75 of the relative times scaled by p50)", tail, want)
	}
	if _, _, _, _, ok := poolLatency([]sample{a, nil}); ok {
		t.Fatal("a program without instances must be refused")
	}
}
