package main

import (
	"math/rand"
	"testing"
	"time"

	"rev/internal/sigtable"
)

// capacityProbe passes every rate up to capacity and counts its calls.
func capacityProbe(capacity float64, calls *int) func(float64) bool {
	return func(rate float64) bool {
		*calls++
		return rate <= capacity
	}
}

func TestMaxRateBisectionStops(t *testing.T) {
	for _, capacity := range []float64{1200, 5000, 8400, 31000, 63000} {
		calls := 0
		got := maxRate(capacityProbe(capacity, &calls), rateLo, rateHi, rateTol, 50)
		if got > capacity || got < capacity/(1+rateTol) {
			t.Errorf("capacity %v: max rate %v, want within %v%% below it", capacity, got, rateTol*100)
		}
		if calls > 12 {
			t.Errorf("capacity %v: %d probes, want the bisection to stop within 12", capacity, calls)
		}
	}
}

func TestMaxRateMonotoneInCapacity(t *testing.T) {
	prev := 0.0
	for capacity := 100.0; capacity < rateHi; capacity *= 1.07 {
		calls := 0
		got := maxRate(capacityProbe(capacity, &calls), rateLo, rateHi, rateTol, 50)
		if got < prev {
			t.Fatalf("capacity %v: max rate %v went down from %v", capacity, got, prev)
		}
		prev = got
	}
}

func TestMaxRateBelowFloor(t *testing.T) {
	calls := 0
	if got := maxRate(capacityProbe(10, &calls), rateLo, rateHi, rateTol, 50); got != 0 {
		t.Fatalf("capacity below the floor: got %v, want 0", got)
	}
}

// TestSustainsRejectsGrowingBacklog: a phase whose latency climbs
// steadily (a queue that grows) fails, and so does a stall that reaches
// more requests than the tail leaves beyond it; a stall that reaches
// fewer does not.
func TestSustainsRejectsGrowingBacklog(t *testing.T) {
	mk := func(lat func(i int) float64) phaseStats {
		ops := make([]planeOp, 4000) // the p90 tail leaves 400 lookups beyond it
		for i := range ops {
			ops[i].due = time.Duration(i) * 100 * time.Microsecond
			ops[i].done = ops[i].due + time.Duration(lat(i)*float64(time.Millisecond))
		}
		return statsOf(ops)
	}
	stall := func(n int) func(i int) float64 {
		return func(i int) float64 {
			if i >= 1000 && i < 1000+n {
				return 8
			}
			return 0.2
		}
	}
	if !mk(func(i int) float64 { return 0.2 }).sustains() {
		t.Error("a flat 0.2ms phase should sustain a 1ms limit")
	}
	if !mk(stall(300)).sustains() {
		t.Error("a stall of 300 lookups in 4000 is beyond the p90 tail and should not fail the phase")
	}
	if mk(stall(500)).sustains() {
		t.Error("a stall of 500 lookups in 4000 reaches the p90 tail and should fail the phase")
	}
	if mk(func(i int) float64 { return 0.2 + float64(i)*0.001 }).sustains() {
		t.Error("a steadily growing queue should fail the phase")
	}
}

// TestScheduleFollowsRecording: single lookups and batch frames come in
// the recorded proportion, and one put comes per recorded instance's
// requests.
func TestScheduleFollowsRecording(t *testing.T) {
	rec := &recording{singles: make([]single, 600), batches: make([][]sigtable.BatchReq, 400)}
	pl := &plane{tenant: []*tenantConn{{in: &tenantInput{rec: rec}}, {in: &tenantInput{rec: rec}}}}
	ops := pl.schedule(rand.New(rand.NewSource(1)), 1000, 20*time.Second)
	var kinds [3]int
	for _, op := range ops {
		kinds[op.kind]++
	}
	if kinds[opPut] != 20 {
		t.Errorf("%d puts in 20000 requests, want one per 1000 recorded requests", kinds[opPut])
	}
	if share := float64(kinds[opBatch]) / float64(kinds[opBatch]+kinds[opLookup]); share < 0.38 || share > 0.42 {
		t.Errorf("batch share %.3f, want the recorded 0.4", share)
	}
}

// TestAnswerSumCatchesPerturbation: the fold the plane verifies answers
// by changes when any compared part of one answer changes.
func TestAnswerSumCatchesPerturbation(t *testing.T) {
	base := func() sigtable.BatchRes {
		return sigtable.BatchRes{
			Entry:   sigtable.Entry{End: 0x4000, Hash: 7, Term: 2, Targets: []uint64{0x4010, 0x4020}, RetPreds: []uint64{0x5000}},
			Touched: []uint64{0x9000, 0x9040},
		}
	}
	want := answerSum(0, base())
	if got := answerSum(0, base()); got != want {
		t.Fatalf("equal answers fold to %#x and %#x", got, want)
	}
	perturb := map[string]func(*sigtable.BatchRes){
		"touched address": func(r *sigtable.BatchRes) { r.Touched[1]++ },
		"touched count":   func(r *sigtable.BatchRes) { r.Touched = r.Touched[:1] },
		"entry end":       func(r *sigtable.BatchRes) { r.Entry.End++ },
		"entry hash":      func(r *sigtable.BatchRes) { r.Entry.Hash++ },
		"entry term":      func(r *sigtable.BatchRes) { r.Entry.Term++ },
		"target":          func(r *sigtable.BatchRes) { r.Entry.Targets[0]++ },
		"target moved to ret preds": func(r *sigtable.BatchRes) {
			r.Entry.RetPreds = append(r.Entry.RetPreds, r.Entry.Targets[1])
			r.Entry.Targets = r.Entry.Targets[:1]
		},
		"verdict": func(r *sigtable.BatchRes) { r.Err = sigtable.ErrMiss },
	}
	for name, f := range perturb {
		r := base()
		f(&r)
		if answerSum(0, r) == want {
			t.Errorf("%s changed but the answer folds the same", name)
		}
	}
}
