package cfg

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rev/internal/isa"
	"rev/internal/prog"
	"rev/internal/workload"
)

// refSuccs is the map-and-sort successor derivation attachEdges used
// before it special-cased terminators with at most two successors: every
// block collects its successors into a set, then sorts the keys.
func refSuccs(b *Builder, blk *Block) []uint64 {
	set := make(map[uint64]bool)
	if blk.Artificial {
		if blk.End+isa.WordSize <= b.mod.Limit() {
			set[blk.End+isa.WordSize] = true
		}
	} else {
		in := b.mod.InstrAt(blk.End - b.mod.Base)
		switch blk.Term {
		case isa.KindCondBranch:
			if t, ok := in.Target(blk.End); ok {
				set[t] = true
			}
			set[blk.End+isa.WordSize] = true
		case isa.KindJump, isa.KindCall:
			if t, ok := in.Target(blk.End); ok {
				set[t] = true
			}
		case isa.KindRet, isa.KindIJump, isa.KindICall:
			for t := range b.computedTargets[blk.End] {
				set[t] = true
			}
		}
	}
	return refSortedKeys(set)
}

func refSortedKeys(set map[uint64]bool) []uint64 {
	if len(set) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestAttachEdgesMatchesMapReference builds the bzip2 and gobmk graphs
// with profiled and statically analysed computed edges, as core.Prepare
// does, and checks every block's Succs and RetPreds against the
// map-and-sort reference, including nil for an empty list.
func TestAttachEdgesMatchesMapReference(t *testing.T) {
	for _, name := range []string{"bzip2", "gobmk"} {
		t.Run(name, func(t *testing.T) {
			prof, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			load := func() *prog.Program {
				m, err := prof.Generate()
				if err != nil {
					t.Fatal(err)
				}
				p := prog.NewProgram()
				if err := p.Load(m); err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := load()
			pr, err := ProfileRun(load(), 200_000)
			if err != nil {
				t.Fatal(err)
			}
			bld := NewBuilder(p.Main(), DefaultLimits())
			pr.Apply(bld)
			Analyze(p, DefaultAnalyzeOptions()).Apply(bld)
			g, err := bld.Build()
			if err != nil {
				t.Fatal(err)
			}
			var computed, twoArm int
			for _, start := range g.Starts {
				blk := g.ByStart[start]
				if blk.Term.IsComputed() {
					computed++
				}
				if blk.Term == isa.KindCondBranch && len(blk.Succs) == 2 {
					twoArm++
				}
				if want := refSuccs(bld, blk); !reflect.DeepEqual(blk.Succs, want) {
					t.Fatalf("block %#x (%v, artificial=%v): Succs %#v, reference %#v",
						start, blk.Term, blk.Artificial, blk.Succs, want)
				}
				if want := refSortedKeys(bld.retEdges[start]); !reflect.DeepEqual(blk.RetPreds, want) {
					t.Fatalf("block %#x: RetPreds %#v, reference %#v", start, blk.RetPreds, want)
				}
			}
			if computed == 0 || twoArm == 0 {
				t.Fatalf("graph of %d blocks has %d computed and %d two-arm branch blocks; the check needs both",
					len(g.Starts), computed, twoArm)
			}
		})
	}
}

// TestStaticSuccsEdgeCases covers what the workload graphs lack or
// rarely hold, against the same reference: a backward branch lists its
// target first, a forward one the fall-through first, a branch to the
// next instruction has one successor, and an artificial split falls
// through unless it ends the module.
func TestStaticSuccsEdgeCases(t *testing.T) {
	m := &prog.Module{Name: "m", Base: 0x1000, Code: make([]byte, 4*isa.WordSize)}
	b := &Builder{mod: m}
	check := func(what string, blk *Block) {
		t.Helper()
		if got, want := appendStaticSuccs(nil, m, blk), refSuccs(b, blk); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: appendStaticSuccs %#v, reference %#v", what, got, want)
		}
	}
	for _, imm := range []int32{-16, 16, 8} {
		in := isa.Instr{Op: isa.BEQ, Imm: imm}
		in.EncodeTo(m.Code[2*isa.WordSize:])
		check(fmt.Sprintf("branch imm %d", imm), &Block{Start: 0x1010, End: 0x1010, Term: isa.KindCondBranch})
	}
	check("artificial mid-module", &Block{Start: 0x1000, End: 0x1008, Artificial: true})
	check("artificial at module end", &Block{Start: 0x1010, End: 0x1018, Artificial: true})
	check("halt", &Block{Start: 0x1018, End: 0x1018, Term: isa.KindHalt})
}
