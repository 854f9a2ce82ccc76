// Package cfg recovers the reference control-flow graph that REV validates
// against: the set of basic blocks of a module, their terminating
// control-flow instructions, their legal successor addresses, and — for
// blocks entered by returning from a call — the legal return-instruction
// predecessors used by REV's delayed return validation (paper Sec. V.A).
//
// # Block model
//
// REV identifies a basic block by the address of the control-flow
// instruction that terminates it, and the hardware delimits blocks
// dynamically: a block begins where the previous control transfer landed
// and ends at the next control-flow instruction (or at an artificial limit
// for very long blocks, Sec. IV.A). Statically we therefore enumerate
// blocks per *entry point*: every control-flow target, fall-through point,
// function entry and profiled computed target starts a block that extends
// to the first control-flow instruction at or after it. Two entry points
// that flow into the same terminator produce two blocks sharing an end
// address but with different hashes; the signature table discriminates them
// through its collision chains exactly as the paper describes (Sec. V.B).
//
// # Computed control flow
//
// Targets of computed jumps/calls and returns cannot be derived from the
// instruction bytes. The paper uses static analysis and profiling runs
// (Sec. IV.D); this package provides a Profiler that records computed edges
// from an instrumented functional run, plus explicit annotations.
package cfg

import (
	"fmt"
	"slices"
	"sort"

	"rev/internal/cpu"
	"rev/internal/isa"
	"rev/internal/prog"
)

// Limits configures the artificial splitting of long basic blocks so that
// REV's post-commit ROB and store-queue extensions cannot overflow
// (Sec. IV.A). The pipeline front end applies the same limits dynamically.
type Limits struct {
	// MaxInstrs is the maximum number of instructions per block.
	MaxInstrs int
	// MaxStores is the maximum number of stores per block.
	MaxStores int
}

// DefaultLimits mirrors the deferred-update buffering assumed in the
// evaluation: blocks are cut at 64 instructions or 16 pending stores,
// whichever comes first.
func DefaultLimits() Limits { return Limits{MaxInstrs: 64, MaxStores: 16} }

// Block is one basic block: a straight-line run of instructions from Start
// to the terminator at End (inclusive; both are virtual addresses).
type Block struct {
	Start uint64
	End   uint64
	// NumInstrs = (End-Start)/8 + 1.
	NumInstrs int
	// NumStores counts ST instructions in the block (deferred-update cost).
	NumStores int
	// Term classifies the terminating instruction. For blocks cut at an
	// artificial limit Term is the kind of the last instruction (non-CF)
	// and Artificial is true.
	Term isa.Kind
	// Artificial marks a block cut by Limits rather than by a control-flow
	// instruction; its only successor is the fall-through.
	Artificial bool
	// Succs lists the legal start addresses of successor blocks, sorted.
	// For direct branches these come from the encoding; for computed
	// branches and returns they come from profiling/annotations.
	Succs []uint64
	// RetPreds, on a block that begins at a return site (the instruction
	// after a call), lists the addresses of RET instructions that may
	// legally return here. Used by delayed return validation.
	RetPreds []uint64
}

// HasSucc reports whether addr is a legal successor of the block.
func (b *Block) HasSucc(addr uint64) bool {
	i := sort.Search(len(b.Succs), func(i int) bool { return b.Succs[i] >= addr })
	return i < len(b.Succs) && b.Succs[i] == addr
}

// HasRetPred reports whether ret is a legal returning predecessor.
func (b *Block) HasRetPred(ret uint64) bool {
	i := sort.Search(len(b.RetPreds), func(i int) bool { return b.RetPreds[i] >= ret })
	return i < len(b.RetPreds) && b.RetPreds[i] == ret
}

// EachSucc calls yield for every legal successor start address in sorted
// order, stopping early when yield returns false. It reports whether the
// iteration ran to completion. Prediction walks use it to enumerate
// candidate paths without copying the slice.
func (b *Block) EachSucc(yield func(addr uint64) bool) bool {
	for _, s := range b.Succs {
		if !yield(s) {
			return false
		}
	}
	return true
}

// Graph is the reference CFG of one module.
type Graph struct {
	Module *prog.Module
	Limits Limits
	// ByStart maps a block's start address to the block. Start addresses
	// are unique (the walk from an entry point is deterministic).
	ByStart map[uint64]*Block
	// ByEnd maps a terminator address to all blocks ending there (blocks
	// overlapping in memory share terminators).
	ByEnd map[uint64][]*Block
	// Starts is the sorted list of block start addresses.
	Starts []uint64
}

// BlockAt returns the block starting at addr, or nil when no walk from
// any known entry point begins there.
func (g *Graph) BlockAt(addr uint64) *Block { return g.ByStart[addr] }

// SynthesizeAt builds the dynamic basic block that execution entering at
// start would produce — the same walk the pipeline front end performs —
// for start addresses the static enumeration never saw (e.g. a computed
// target discovered only at run time). The returned block carries the
// statically derivable successors (direct target, fall-through); computed
// terminators get none, because synthesis has no profiling knowledge.
// The block is not retained in the graph. ok is false when start lies
// outside the module or is misaligned.
func (g *Graph) SynthesizeAt(start uint64) (Block, bool) {
	m := g.Module
	if !m.Contains(start) || (start-m.Base)%isa.WordSize != 0 {
		return Block{}, false
	}
	blk := Block{Start: start}
	pc := start
	for {
		in := m.InstrAt(pc - m.Base)
		blk.NumInstrs++
		if in.Op == isa.ST {
			blk.NumStores++
		}
		k := in.Kind()
		if k.IsControlFlow() {
			blk.End = pc
			blk.Term = k
			break
		}
		if blk.NumInstrs >= g.Limits.MaxInstrs || blk.NumStores >= g.Limits.MaxStores {
			blk.End = pc
			blk.Term = k
			blk.Artificial = true
			break
		}
		pc += isa.WordSize
		if pc > m.Limit() {
			blk.End = pc - isa.WordSize
			blk.Term = k
			blk.Artificial = true
			return blk, true // fell off the module end: no successor
		}
	}
	blk.Succs = appendStaticSuccs(nil, m, &blk)
	return blk, true
}

// appendStaticSuccs appends to dst the successors a block's bytes
// determine — the fall-through of an artificial split, the direct
// target of a jump or call, both arms of a conditional branch — sorted
// and deduplicated; there are at most two. Computed terminators have
// none here: their successors come from profiling and static analysis.
func appendStaticSuccs(dst []uint64, m *prog.Module, blk *Block) []uint64 {
	next := blk.End + isa.WordSize
	if blk.Artificial {
		if next <= m.Limit() {
			dst = append(dst, next)
		}
		return dst
	}
	switch blk.Term {
	case isa.KindCondBranch:
		t, ok := m.InstrAt(blk.End - m.Base).Target(blk.End)
		switch {
		case !ok || t == next:
			dst = append(dst, next)
		case t < next:
			dst = append(dst, t, next)
		default:
			dst = append(dst, next, t)
		}
	case isa.KindJump, isa.KindCall:
		if t, ok := m.InstrAt(blk.End - m.Base).Target(blk.End); ok {
			dst = append(dst, t)
		}
	}
	return dst
}

// Stats summarizes the graph in the terms the paper reports (Sec. VIII).
type Stats struct {
	NumBlocks      int
	AvgSuccessors  float64
	AvgInstrs      float64
	NumComputed    int // blocks terminated by computed branches/returns
	TotalBranches  int // blocks terminated by any control-flow instruction
	ComputedShare  float64
	NumRetLandings int
}

// Stats computes summary statistics of the graph.
func (g *Graph) Stats() Stats {
	var s Stats
	var succs, instrs int
	for _, b := range g.ByStart {
		s.NumBlocks++
		succs += len(b.Succs)
		instrs += b.NumInstrs
		if !b.Artificial && b.Term.IsControlFlow() && b.Term != isa.KindHalt {
			s.TotalBranches++
			if b.Term.IsComputed() {
				s.NumComputed++
			}
		}
		if len(b.RetPreds) > 0 {
			s.NumRetLandings++
		}
	}
	if s.NumBlocks > 0 {
		s.AvgSuccessors = float64(succs) / float64(s.NumBlocks)
		s.AvgInstrs = float64(instrs) / float64(s.NumBlocks)
	}
	if s.TotalBranches > 0 {
		s.ComputedShare = float64(s.NumComputed) / float64(s.TotalBranches)
	}
	return s
}

// Builder accumulates entry points and computed-flow knowledge, then builds
// the Graph.
type Builder struct {
	mod    *prog.Module
	limits Limits
	// computedTargets maps the address of a computed CF instruction to its
	// set of legal targets.
	computedTargets map[uint64]map[uint64]bool
	// retEdges maps a return-site address (block start following a call)
	// to the set of RET instruction addresses returning there.
	retEdges map[uint64]map[uint64]bool
	// extraEntries are additional block entry points (e.g. attack-handler
	// stubs or profiled landing sites).
	extraEntries []uint64
}

// NewBuilder creates a CFG builder for a loaded module.
func NewBuilder(m *prog.Module, lim Limits) *Builder {
	return &Builder{
		mod:             m,
		limits:          lim,
		computedTargets: make(map[uint64]map[uint64]bool),
		retEdges:        make(map[uint64]map[uint64]bool),
	}
}

// AddComputedTarget registers target as legal for the computed control-flow
// instruction at pc (from static analysis, annotations, or profiling).
func (b *Builder) AddComputedTarget(pc, target uint64) {
	set := b.computedTargets[pc]
	if set == nil {
		set = make(map[uint64]bool)
		b.computedTargets[pc] = set
	}
	set[target] = true
}

// AddReturnEdge registers that the RET instruction at retPC may return to
// retSite (the instruction following some call).
func (b *Builder) AddReturnEdge(retPC, retSite uint64) {
	set := b.retEdges[retSite]
	if set == nil {
		set = make(map[uint64]bool)
		b.retEdges[retSite] = set
	}
	set[retPC] = true
	// A return target is also a legal successor of the returning block.
	b.AddComputedTarget(retPC, retSite)
}

// AddEntry registers an extra block entry point.
func (b *Builder) AddEntry(addr uint64) {
	b.extraEntries = append(b.extraEntries, addr)
}

// Build enumerates the blocks and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	m := b.mod
	if m.Base == 0 && m.Name != "" && len(m.Code) > 0 {
		// Base 0 means not loaded; addresses below would be offsets.
		return nil, fmt.Errorf("cfg: module %q not loaded (Base == 0)", m.Name)
	}
	entries := map[uint64]bool{m.EntryAddr(): true}
	for _, s := range m.Symbols {
		entries[m.Base+s.Addr] = true
	}
	for _, e := range b.extraEntries {
		entries[e] = true
	}
	// Scan every instruction once to find direct targets and fall-throughs.
	n := m.NumInstrs()
	for i := 0; i < n; i++ {
		pc := m.Base + uint64(i)*isa.WordSize
		in := m.InstrAt(uint64(i) * isa.WordSize)
		k := in.Kind()
		if !k.IsControlFlow() {
			continue
		}
		if t, ok := in.Target(pc); ok {
			if !m.Contains(t) {
				// Cross-module direct target: still an entry of *that*
				// module's graph, not ours; skip here.
			} else {
				entries[t] = true
			}
		}
		// The instruction after any CF instruction starts a block (branch
		// fall-through or call-return site).
		if k != isa.KindHalt && i+1 < n {
			entries[pc+isa.WordSize] = true
		}
	}
	// Computed targets within this module are entries too.
	for _, set := range b.computedTargets {
		for t := range set {
			if m.Contains(t) {
				entries[t] = true
			}
		}
	}
	for site := range b.retEdges {
		if m.Contains(site) {
			entries[site] = true
		}
	}

	g := &Graph{
		Module:  m,
		Limits:  b.limits,
		ByStart: make(map[uint64]*Block),
		ByEnd:   make(map[uint64][]*Block),
	}
	// Walk from each entry. Artificial splits create new entry points,
	// processed with a worklist.
	work := make([]uint64, 0, len(entries))
	for e := range entries {
		work = append(work, e)
	}
	slices.Sort(work)
	for len(work) > 0 {
		start := work[0]
		work = work[1:]
		if _, done := g.ByStart[start]; done {
			continue
		}
		blk, next, err := b.walk(start)
		if err != nil {
			return nil, err
		}
		g.ByStart[start] = blk
		g.ByEnd[blk.End] = append(g.ByEnd[blk.End], blk)
		if next != 0 {
			if _, done := g.ByStart[next]; !done {
				work = append(work, next)
			}
		}
	}
	g.Starts = make([]uint64, 0, len(g.ByStart))
	for s := range g.ByStart {
		g.Starts = append(g.Starts, s)
	}
	slices.Sort(g.Starts)
	b.attachEdges(g)
	return g, nil
}

// walk builds the block starting at start. It returns the block and, for
// artificially split blocks, the follow-on entry point (0 otherwise).
func (b *Builder) walk(start uint64) (*Block, uint64, error) {
	m := b.mod
	if !m.Contains(start) || (start-m.Base)%isa.WordSize != 0 {
		return nil, 0, fmt.Errorf("cfg: entry %#x outside module %q or misaligned", start, m.Name)
	}
	blk := &Block{Start: start}
	pc := start
	for {
		in := m.InstrAt(pc - m.Base)
		blk.NumInstrs++
		if in.Op == isa.ST {
			blk.NumStores++
		}
		k := in.Kind()
		if k.IsControlFlow() {
			blk.End = pc
			blk.Term = k
			return blk, 0, nil
		}
		if blk.NumInstrs >= b.limits.MaxInstrs || blk.NumStores >= b.limits.MaxStores {
			blk.End = pc
			blk.Term = k
			blk.Artificial = true
			return blk, pc + isa.WordSize, nil
		}
		pc += isa.WordSize
		if pc > m.Limit() {
			// Fell off the end of the module without a terminator; treat
			// as an artificial block with no successor.
			blk.End = pc - isa.WordSize
			blk.Term = k
			blk.Artificial = true
			return blk, 0, nil
		}
	}
}

// attachEdges fills Succs and RetPreds for every block. Only computed
// terminators, whose targets are sets gathered from profiling and
// analysis, need a sort. Every other block has at most two successors;
// their lists are carved, capacity-capped, out of one shared array.
func (b *Builder) attachEdges(g *Graph) {
	static := make([]uint64, 0, 2*len(g.Starts))
	for _, start := range g.Starts {
		blk := g.ByStart[start]
		if !blk.Artificial && blk.Term.IsComputed() {
			blk.Succs = sortedKeys(b.computedTargets[blk.End])
		} else {
			n := len(static)
			static = appendStaticSuccs(static, b.mod, blk)
			if len(static) > n {
				blk.Succs = static[n:len(static):len(static)]
			}
		}
		if preds, ok := b.retEdges[blk.Start]; ok {
			blk.RetPreds = sortedKeys(preds)
		}
	}
}

func sortedKeys(set map[uint64]bool) []uint64 {
	if len(set) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Profiler records computed control-flow edges from an instrumented run,
// standing in for the paper's profiling runs (Sec. IV.D). Attach to a
// Machine, run a representative workload, then Apply to one or more
// Builders.
type Profiler struct {
	// ComputedEdges maps computed-CF pc -> target set.
	ComputedEdges map[uint64]map[uint64]bool
	// ReturnEdges maps return-site -> RET pc set.
	ReturnEdges map[uint64]map[uint64]bool

	prevPC   uint64
	prevKind isa.Kind
	prevCF   bool
	armed    bool
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		ComputedEdges: make(map[uint64]map[uint64]bool),
		ReturnEdges:   make(map[uint64]map[uint64]bool),
	}
}

// Attach hooks the profiler into a machine's BeforeStep. The edge from a
// computed CF instruction is observed at the *next* step, when the landing
// PC is known.
func (pr *Profiler) Attach(m *cpu.Machine) {
	m.BeforeStep = func(pc uint64, in isa.Instr) {
		if pr.armed && pr.prevCF {
			pr.record(pr.prevPC, pr.prevKind, pc)
		}
		k := in.Kind()
		pr.prevPC = pc
		pr.prevKind = k
		pr.prevCF = k.IsComputed()
		pr.armed = true
	}
}

func (pr *Profiler) record(src uint64, kind isa.Kind, dst uint64) {
	set := pr.ComputedEdges[src]
	if set == nil {
		set = make(map[uint64]bool)
		pr.ComputedEdges[src] = set
	}
	set[dst] = true
	if kind == isa.KindRet {
		rs := pr.ReturnEdges[dst]
		if rs == nil {
			rs = make(map[uint64]bool)
			pr.ReturnEdges[dst] = rs
		}
		rs[src] = true
	}
}

// Apply transfers all recorded edges into a builder.
func (pr *Profiler) Apply(b *Builder) {
	for src, set := range pr.ComputedEdges {
		for dst := range set {
			b.AddComputedTarget(src, dst)
		}
	}
	for site, rets := range pr.ReturnEdges {
		for ret := range rets {
			b.AddReturnEdge(ret, site)
		}
	}
}

// ProfileRun is a convenience: build a machine over p, profile maxInstrs
// instructions (or to HALT), and return the profiler.
func ProfileRun(p *prog.Program, maxInstrs uint64) (*Profiler, error) {
	m := cpu.NewMachine(p)
	pr := NewProfiler()
	pr.Attach(m)
	if _, err := m.Run(maxInstrs); err != nil {
		return nil, err
	}
	return pr, nil
}

// ClassicStats reports statistics over the classic (partitioned) basic
// blocks: maximal straight-line runs delimited by leaders and terminators,
// with no overlap. These are the numbers compilers and the paper's Sec.
// VIII report; the dynamic-entry model used for validation enumerates
// overlapping blocks and therefore counts longer, partially shared spans.
func (g *Graph) ClassicStats() Stats {
	var s Stats
	var instrs, succs int
	for i, start := range g.Starts {
		blk := g.ByStart[start]
		end := blk.End
		if i+1 < len(g.Starts) && g.Starts[i+1] <= end {
			end = g.Starts[i+1] - 8
		}
		s.NumBlocks++
		instrs += int(end-start)/8 + 1
		if end == blk.End {
			// The classic block keeps the real terminator and successors.
			succs += len(blk.Succs)
			if !blk.Artificial && blk.Term.IsControlFlow() && blk.Term != isa.KindHalt {
				s.TotalBranches++
				if blk.Term.IsComputed() {
					s.NumComputed++
				}
			}
		} else {
			succs++ // fall-through into the next leader
		}
		if len(blk.RetPreds) > 0 {
			s.NumRetLandings++
		}
	}
	if s.NumBlocks > 0 {
		s.AvgInstrs = float64(instrs) / float64(s.NumBlocks)
		s.AvgSuccessors = float64(succs) / float64(s.NumBlocks)
	}
	if s.TotalBranches > 0 {
		s.ComputedShare = float64(s.NumComputed) / float64(s.TotalBranches)
	}
	return s
}
