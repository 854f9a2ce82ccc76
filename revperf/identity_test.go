package main

import (
	"testing"

	"rev/internal/branch"
	"rev/internal/core"
	"rev/internal/cpu"
	"rev/internal/mem"
	"rev/internal/shadow"
	"rev/internal/sigtable"
)

func sampleResult() *core.Result {
	return &core.Result{
		Pipe:           cpu.PipeStats{Instrs: 300000, Cycles: 420000, CommittedBranches: 50000, Mispredicts: 900, ValidationStallCycles: 3000, BBCount: 45000},
		Branch:         branch.Stats{CondPredicts: 40000, CondMispredicts: 800, TargetPredicts: 5000},
		UniqueBranches: 1200,
		L1D:            mem.CacheStats{Accesses: [4]uint64{90000}, Misses: [4]uint64{2000}},
		L1I:            mem.CacheStats{Accesses: [4]uint64{300000}, Misses: [4]uint64{700}},
		L2:             mem.CacheStats{Accesses: [4]uint64{2700}, Misses: [4]uint64{1100}},
		DRAM:           mem.DRAMStats{RowHits: 600, RowMisses: 500},
		SC:             core.SCView{Probes: 45000, Hits: 40000, PartialMisses: 1000, CompleteMisses: 4000, Misses: 5000, MissRate: 5000.0 / 45000},
		Engine:         core.Stats{ValidatedBlocks: 45000, RAMLookups: 5000, MemoHits: 41000, MemoMisses: 4000},
		Shadow:         shadow.Stats{},
		Output:         []uint64{7, 11, 13},
	}
}

// TestIdentityCatchesOnePerturbedField changes one figure at a time and
// expects the check against the reference to fail every time, while the
// memo hit/miss split (which pipelined lanes may shard) is exempt.
func TestIdentityCatchesOnePerturbedField(t *testing.T) {
	ref := identitySig(sampleResult())
	for name, perturb := range map[string]func(*core.Result){
		"output":          func(r *core.Result) { r.Output[1]++ },
		"output length":   func(r *core.Result) { r.Output = r.Output[:2] },
		"halted":          func(r *core.Result) { r.Halted = true },
		"cycles":          func(r *core.Result) { r.Pipe.Cycles++ },
		"stall cycles":    func(r *core.Result) { r.Pipe.ValidationStallCycles++ },
		"branch":          func(r *core.Result) { r.Branch.CondMispredicts++ },
		"unique branches": func(r *core.Result) { r.UniqueBranches++ },
		"l1d":             func(r *core.Result) { r.L1D.Misses[0]++ },
		"l1i":             func(r *core.Result) { r.L1I.Accesses[0]++ },
		"l2":              func(r *core.Result) { r.L2.Misses[0]-- },
		"dram":            func(r *core.Result) { r.DRAM.RowHits++ },
		"sc probes":       func(r *core.Result) { r.SC.Probes++ },
		"sc partial":      func(r *core.Result) { r.SC.PartialMisses++ },
		"engine blocks":   func(r *core.Result) { r.Engine.ValidatedBlocks-- },
		"ram lookups":     func(r *core.Result) { r.Engine.RAMLookups++ },
		"shadow":          func(r *core.Result) { r.Shadow.Epochs++ },
		"violation":       func(r *core.Result) { r.Violation = &core.Violation{BBStart: 4, BBEnd: 8} },
		"source note":     func(r *core.Result) { r.SourceNotes = []sigtable.SourceNote{{Module: "m"}} },
	} {
		r := sampleResult()
		perturb(r)
		if checkResult(ref, r) == nil {
			t.Errorf("perturbing %s went unnoticed", name)
		}
	}
	r := sampleResult()
	r.Engine.MemoHits, r.Engine.MemoMisses = 30000, 15000
	if err := checkResult(ref, r); err != nil {
		t.Errorf("a different memo split must pass: %v", err)
	}
}

// TestSameStream: the first stream is kept, an equal one passes and a
// stream differing in one byte fails.
func TestSameStream(t *testing.T) {
	var first []byte
	a := []byte{1, 2, 3, 4}
	if err := sameStream(&first, a); err != nil {
		t.Fatal(err)
	}
	a[0] = 9 // the kept copy must not alias the caller's buffer
	if err := sameStream(&first, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if sameStream(&first, []byte{1, 2, 3, 5}) == nil {
		t.Fatal("a stream differing in its last byte went unnoticed")
	}
}
