package main

import (
	"math"
	"testing"
)

// TestLadderMarginalsReconcile: rung marginals add up to the top rung,
// and the gap against the untraced figure is a plain percentage.
func TestLadderMarginalsReconcile(t *testing.T) {
	meds := []float64{15, 52, 84, 80, 85, 88}
	m := marginals(meds)
	want := []float64{15, 37, 32, -4, 5, 3}
	var sum float64
	for i := range m {
		if math.Abs(m[i]-want[i]) > 1e-9 {
			t.Fatalf("marginal %d = %v, want %v", i, m[i], want[i])
		}
		sum += m[i]
	}
	if math.Abs(sum-meds[len(meds)-1]) > 1e-9 {
		t.Fatalf("marginals sum to %v, top rung is %v", sum, meds[len(meds)-1])
	}
	if g := gapPct(88, 80); math.Abs(g-10) > 1e-9 {
		t.Fatalf("gapPct(88, 80) = %v, want 10", g)
	}

	r := &run{metrics: map[string]metric{}, unmeasured: map[string]string{}}
	reportLadder(r, []string{"cpu.functional_ms", "cpu.timing_ms", "core.rev_ms", "core.pipeline_ms", "evidence.ms", ""}, meds, 80)
	if got := r.metrics["core.pipeline_ms"].Value; got != -4 {
		t.Fatalf("core.pipeline_ms = %v, want -4 (pipelining paid)", got)
	}
	if _, ok := r.metrics[""]; ok {
		t.Fatal("an unnamed rung must not be reported")
	}
	if got := r.metrics["trace.ladder_gap_pct"].Value; math.Abs(got-10) > 1e-9 {
		t.Fatalf("trace.ladder_gap_pct = %v, want 10", got)
	}
}
