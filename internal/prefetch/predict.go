package prefetch

import (
	"slices"

	"rev/internal/cfg"
	"rev/internal/chash"
	"rev/internal/isa"
	"rev/internal/sigtable"
)

// planned is one query the predictor wants fetched, bound to its module.
type planned struct {
	ms  *moduleState
	key qkey
	req sigtable.BatchReq
}

// frontier is one pending walk position: the block about to "execute"
// and the validation state it would inherit (delayed-return latch).
type frontier struct {
	ms      *moduleState
	start   uint64
	fromRet bool
	predEnd uint64
}

// visKey dedups walk positions. The latch state is part of the key
// because it changes the query the engine would issue (CheckPred adds
// spill-walk records, so the touched list differs).
type visKey struct {
	start, pred uint64
	fromRet     bool
}

// predict walks the CFG ahead of the committed block ev and plans up to
// Depth not-yet-covered queries. The walk is depth-first along each
// block's most-likely successor (the MRU-trained choice first, static
// CFG order after), so prediction reaches far along the probable path
// before spending budget on alternate branch arms — the same bet the
// paper's SC successor slots encode. Side arms are still pushed (LIFO),
// so loop exits and cold arms fill whatever budget the primary path
// leaves.
func (p *Prefetcher) predict(ev event) []planned {
	ms := p.moduleAt(ev.next)
	if ms == nil {
		return nil
	}
	var plan []planned
	inPlan := make(map[qkey]bool)
	visited := make(map[visKey]bool)
	stack := []frontier{{ms: ms, start: ev.next, fromRet: ev.term == isa.KindRet, predEnd: ev.end}}
	maxSteps := 64 * p.cfg.Depth
	for steps := 0; len(stack) > 0 && len(plan) < p.cfg.Depth && steps < maxSteps; steps++ {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vk := visKey{start: f.start, fromRet: f.fromRet}
		if f.fromRet {
			vk.pred = f.predEnd
		}
		if visited[vk] {
			continue
		}
		visited[vk] = true
		b := f.ms.block(f.start)
		if b == nil {
			continue
		}
		succs := p.candidates(b)
		p.emit(&plan, inPlan, f, b, succs)
		// Push in reverse so the most-likely successor is explored first.
		for i := len(succs) - 1; i >= 0; i-- {
			s := succs[i]
			nms := f.ms
			if s < nms.base || s > nms.limit {
				if nms = p.moduleAt(s); nms == nil {
					continue
				}
			}
			stack = append(stack, frontier{ms: nms, start: s, fromRet: b.Term == isa.KindRet, predEnd: b.End})
		}
	}
	return plan
}

// candidates orders a block's successor choices most-likely first: the
// MRU-observed successor (which for computed terminators may be a target
// static analysis never saw), then static CFG order, capped at Degree.
func (p *Prefetcher) candidates(b *cfg.Block) []uint64 {
	out := make([]uint64, 0, p.cfg.Degree)
	if m, ok := p.mru[b.End]; ok {
		out = append(out, m)
	}
	b.EachSucc(func(s uint64) bool {
		if len(out) >= p.cfg.Degree {
			return false
		}
		for _, x := range out {
			if x == s {
				return true
			}
		}
		out = append(out, s)
		return true
	})
	if len(out) > p.cfg.Degree {
		out = out[:p.cfg.Degree]
	}
	return out
}

// emit plans the queries validating block b would issue, mirroring the
// engine's need construction exactly (engine.go validateHashed): a RET
// terminator defers to delayed-return validation (no target check),
// computed terminators check the actual target, Aggressive checks every
// control-flow target, and an inherited RET latch adds the predecessor
// check. Blocks whose query depends on the taken successor plan one
// query per explored arm. In CFIOnly format only computed-terminator
// blocks query at all, as edges.
func (p *Prefetcher) emit(plan *[]planned, inPlan map[qkey]bool, f frontier, b *cfg.Block, succs []uint64) {
	if p.format == sigtable.CFIOnly {
		if !b.Term.IsComputed() {
			return
		}
		for _, s := range succs {
			w := sigtable.Want{Target: s}
			p.add(plan, inPlan, f.ms,
				qkey{mod: f.ms.idx, kind: sigtable.BatchEdge, end: b.End, want: w},
				sigtable.BatchReq{Kind: sigtable.BatchEdge, End: b.End, Want: w})
		}
		return
	}
	sig := f.ms.sigOf(b)
	base := sigtable.Want{}
	if f.fromRet {
		base.CheckPred = true
		base.Pred = f.predEnd
	}
	checkTarget := false
	switch {
	case b.Term == isa.KindRet:
		// Delayed return validation: no target walk on the RET block.
	case b.Term.IsComputed():
		checkTarget = true
	case p.format == sigtable.Aggressive && b.Term.IsControlFlow() && b.Term != isa.KindHalt:
		checkTarget = true
	}
	if !checkTarget {
		p.add(plan, inPlan, f.ms,
			qkey{mod: f.ms.idx, kind: sigtable.BatchLookup, end: b.End, sig: sig, want: base},
			sigtable.BatchReq{Kind: sigtable.BatchLookup, End: b.End, Sig: sig, Want: base})
		return
	}
	for _, s := range succs {
		w := base
		w.CheckTarget = true
		w.Target = s
		p.add(plan, inPlan, f.ms,
			qkey{mod: f.ms.idx, kind: sigtable.BatchLookup, end: b.End, sig: sig, want: w},
			sigtable.BatchReq{Kind: sigtable.BatchLookup, End: b.End, Sig: sig, Want: w})
	}
}

// add appends one planned query unless it is already planned, already
// buffered, or already in flight — only genuinely new fetches spend
// Depth budget.
func (p *Prefetcher) add(plan *[]planned, inPlan map[qkey]bool, ms *moduleState, k qkey, req sigtable.BatchReq) {
	if len(*plan) >= p.cfg.Depth || inPlan[k] || p.buf.peek(k) || p.inFlight(k) {
		return
	}
	inPlan[k] = true
	*plan = append(*plan, planned{ms: ms, key: k, req: req})
}

// buildBacklog enumerates, once per module at construction, every query
// the engine could legally issue against the statically known CFG — the
// warm-up sweep topUp drains. Per block that is the plain signature
// lookup, a CheckPred variant per statically known return predecessor,
// and — when the engine would check the taken target — a CheckTarget
// variant per static successor instead. In CFIOnly format the set is one
// edge query per static successor of each computed terminator. Queries
// reachable only through runtime-learned computed targets are not
// enumerable here; the MRU-trained frontier walk covers those.
//
// Every static block's signature is hashed here, once, by the same
// parallel kernel sigtable.Build uses; the walk reads them back through
// sigOf.
func (p *Prefetcher) buildBacklog() {
	for _, ms := range p.mods {
		if p.format != sigtable.CFIOnly {
			ms.static = sigtable.BlockSignatures(ms.g)
		}
		for i, start := range ms.g.Starts {
			var sig chash.Sig
			if ms.static != nil {
				sig = ms.static[i]
			}
			p.backlogFor(ms, ms.g.ByStart[start], sig)
		}
	}
}

// backlogFor appends block b's statically enumerable query variants,
// mirroring the same engine need construction emit does. sig is b's
// reference signature (unused in CFIOnly format).
func (p *Prefetcher) backlogFor(ms *moduleState, b *cfg.Block, sig chash.Sig) {
	if p.format == sigtable.CFIOnly {
		if !b.Term.IsComputed() {
			return
		}
		for _, s := range b.Succs {
			w := sigtable.Want{Target: s}
			p.backlog = append(p.backlog, planned{ms: ms,
				key: qkey{mod: ms.idx, kind: sigtable.BatchEdge, end: b.End, want: w},
				req: sigtable.BatchReq{Kind: sigtable.BatchEdge, End: b.End, Want: w}})
		}
		return
	}
	wants := []sigtable.Want{{}}
	for _, rp := range b.RetPreds {
		wants = append(wants, sigtable.Want{CheckPred: true, Pred: rp})
	}
	checkTarget := false
	switch {
	case b.Term == isa.KindRet:
		// Delayed return validation: no target walk on the RET block.
	case b.Term.IsComputed():
		checkTarget = true
	case p.format == sigtable.Aggressive && b.Term.IsControlFlow() && b.Term != isa.KindHalt:
		checkTarget = true
	}
	for _, w := range wants {
		if !checkTarget {
			p.backlog = append(p.backlog, planned{ms: ms,
				key: qkey{mod: ms.idx, kind: sigtable.BatchLookup, end: b.End, sig: sig, want: w},
				req: sigtable.BatchReq{Kind: sigtable.BatchLookup, End: b.End, Sig: sig, Want: w}})
			continue
		}
		for _, s := range b.Succs {
			v := w
			v.CheckTarget = true
			v.Target = s
			p.backlog = append(p.backlog, planned{ms: ms,
				key: qkey{mod: ms.idx, kind: sigtable.BatchLookup, end: b.End, sig: sig, want: v},
				req: sigtable.BatchReq{Kind: sigtable.BatchLookup, End: b.End, Sig: sig, Want: v}})
		}
	}
}

// block resolves the block starting at addr: the static graph first,
// then the synthesis cache (computed targets the static walk never
// enumerated). A nil return means the address cannot start a block.
func (ms *moduleState) block(start uint64) *cfg.Block {
	if b := ms.g.BlockAt(start); b != nil {
		return b
	}
	if b, ok := ms.synth[start]; ok {
		return b
	}
	blk, ok := ms.g.SynthesizeAt(start)
	if !ok {
		ms.synth[start] = nil
		return nil
	}
	b := &blk
	ms.synth[start] = b
	return b
}

// sigOf returns the block's reference signature over the analysis
// image's bytes — never executed, so stable. (A self-modifying measured
// instance diverges from these bytes; its queries then simply never
// match a buffered key and fall back to blocking lookups, exactly the
// unprefetched behavior.) A static block's signature was hashed at
// construction; a synthesized block is hashed on first use and
// memoized by start address.
func (ms *moduleState) sigOf(b *cfg.Block) chash.Sig {
	if i, ok := slices.BinarySearch(ms.g.Starts, b.Start); ok {
		return ms.static[i]
	}
	if s, ok := ms.synthSigs[b.Start]; ok {
		return s
	}
	m := ms.g.Module
	var sig chash.Sig
	chash.BBSignatureInto(&sig, m.Code[b.Start-m.Base:b.End-m.Base+isa.WordSize], b.Start, b.End)
	ms.synthSigs[b.Start] = sig
	return sig
}
