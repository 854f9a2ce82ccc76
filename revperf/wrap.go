package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rev/internal/chash"
	"rev/internal/core"
	"rev/internal/isa"
	"rev/internal/sigtable"
)

// localTimer is the traced run's sigtable layer probe: it stands in as
// a SharedTable.Src over the table's own snapshot and times every
// lookup. It forwards the scratch (allocation-free) lookup path so the
// engine takes the same path it takes on the bare snapshot.
type localTimer struct {
	snap *sigtable.Snapshot
	n    atomic.Int64
	ns   atomic.Int64
}

var (
	_ sigtable.Source        = (*localTimer)(nil)
	_ sigtable.ScratchSource = (*localTimer)(nil)
)

func (t *localTimer) done(t0 time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(t0)))
}

func (t *localTimer) Lookup(end uint64, sig chash.Sig, want sigtable.Want) (sigtable.Entry, []uint64, error) {
	defer t.done(time.Now())
	return t.snap.Lookup(end, sig, want)
}

func (t *localTimer) LookupAll(end uint64, sig chash.Sig) (sigtable.Entry, []uint64, error) {
	defer t.done(time.Now())
	return t.snap.LookupAll(end, sig)
}

func (t *localTimer) LookupEdge(src, dst uint64) ([]uint64, error) {
	defer t.done(time.Now())
	return t.snap.LookupEdge(src, dst)
}

func (t *localTimer) LookupScratch(end uint64, sig chash.Sig, want sigtable.Want, s *sigtable.Scratch) (sigtable.Entry, []uint64, error) {
	defer t.done(time.Now())
	return t.snap.LookupScratch(end, sig, want, s)
}

func (t *localTimer) LookupEdgeScratch(src, dst uint64, s *sigtable.Scratch) ([]uint64, error) {
	defer t.done(time.Now())
	return t.snap.LookupEdgeScratch(src, dst, s)
}

// localProvider serves already prepared tables as a TableProvider, each
// behind a localTimer, so a traced twin of a locally prepared workload
// can be built with core.PrepareRemote without rebuilding the tables.
type localProvider struct {
	tables map[string]*core.SharedTable
	timers []*localTimer
}

func newLocalProvider(prep *core.Prepared) *localProvider {
	lp := &localProvider{tables: map[string]*core.SharedTable{}}
	for _, st := range prep.Tables {
		lp.tables[st.Module] = st
	}
	return lp
}

func (lp *localProvider) Module(name string) (*sigtable.Table, sigtable.Source, error) {
	st, ok := lp.tables[name]
	if !ok {
		return nil, nil, errors.New("no prepared table for module " + name)
	}
	t := &localTimer{snap: st.Snap}
	lp.timers = append(lp.timers, t)
	return st.Table, t, nil
}

// lookups sums the timers' lookup count and busy nanoseconds.
func (lp *localProvider) lookups() (n, ns int64) {
	for _, t := range lp.timers {
		n += t.n.Load()
		ns += t.ns.Load()
	}
	return n, ns
}

// single is one recorded blocking lookup.
type single struct {
	req sigtable.BatchReq
	// all marks a LookupAll (exhaustive spill walk).
	all bool
}

// recording is a query stream captured from a remote-lookup instance:
// the engine's blocking lookups and the prefetcher's batch frames.
type recording struct {
	mu      sync.Mutex
	singles []single
	batches [][]sigtable.BatchReq
}

// wireSource wraps a TableProvider's source — beneath the prefetcher,
// which sits between it and the engine — timing the blocking lookups the
// engine waits on and optionally recording the query stream. It forwards
// BatchSource (with RemoteLookups), CommitObserver and HealthReporter
// from the source it wraps, so prefetching stays on and degraded-source
// notes still reach the result.
type wireSource struct {
	inner sigtable.Source
	rec   *recording

	mu  sync.Mutex
	lat sample // blocking lookup waits, µs
}

var (
	_ sigtable.BatchSource    = (*wireSource)(nil)
	_ sigtable.CommitObserver = (*wireSource)(nil)
	_ sigtable.HealthReporter = (*wireSource)(nil)
)

func (w *wireSource) done(t0 time.Time, s single) {
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	w.mu.Lock()
	w.lat = append(w.lat, us)
	w.mu.Unlock()
	if w.rec != nil {
		w.rec.mu.Lock()
		w.rec.singles = append(w.rec.singles, s)
		w.rec.mu.Unlock()
	}
}

func (w *wireSource) Lookup(end uint64, sig chash.Sig, want sigtable.Want) (sigtable.Entry, []uint64, error) {
	defer w.done(time.Now(), single{req: sigtable.BatchReq{Kind: sigtable.BatchLookup, End: end, Sig: sig, Want: want}})
	return w.inner.Lookup(end, sig, want)
}

func (w *wireSource) LookupAll(end uint64, sig chash.Sig) (sigtable.Entry, []uint64, error) {
	defer w.done(time.Now(), single{req: sigtable.BatchReq{Kind: sigtable.BatchLookup, End: end, Sig: sig}, all: true})
	return w.inner.LookupAll(end, sig)
}

func (w *wireSource) LookupEdge(src, dst uint64) ([]uint64, error) {
	defer w.done(time.Now(), single{req: sigtable.BatchReq{Kind: sigtable.BatchEdge, End: src, Want: sigtable.Want{Target: dst}}})
	return w.inner.LookupEdge(src, dst)
}

// LookupBatch forwards a speculative batch, answering it one query at a
// time when the wrapped source cannot batch.
func (w *wireSource) LookupBatch(reqs []sigtable.BatchReq) []sigtable.BatchRes {
	if w.rec != nil {
		w.rec.mu.Lock()
		w.rec.batches = append(w.rec.batches, append([]sigtable.BatchReq(nil), reqs...))
		w.rec.mu.Unlock()
	}
	if bs, ok := w.inner.(sigtable.BatchSource); ok {
		return bs.LookupBatch(reqs)
	}
	out := make([]sigtable.BatchRes, len(reqs))
	for i, q := range reqs {
		out[i] = answer(w.inner, single{req: q})
	}
	return out
}

func (w *wireSource) LiveEpoch() uint64 {
	if bs, ok := w.inner.(sigtable.BatchSource); ok {
		return bs.LiveEpoch()
	}
	return 0
}

func (w *wireSource) RemoteLookups() bool {
	bs, ok := w.inner.(sigtable.BatchSource)
	return ok && bs.RemoteLookups()
}

func (w *wireSource) ObserveCommit(end, next uint64, term isa.Kind) {
	if co, ok := w.inner.(sigtable.CommitObserver); ok {
		co.ObserveCommit(end, next, term)
	}
}

func (w *wireSource) HealthNote() (sigtable.SourceNote, bool) {
	if hr, ok := w.inner.(sigtable.HealthReporter); ok {
		return hr.HealthNote()
	}
	return sigtable.SourceNote{}, false
}

// wrapProvider wraps every source a TableProvider hands out in a
// wireSource and times the provider's module fetches.
type wrapProvider struct {
	inner   core.TableProvider
	rec     *recording
	fetchMS float64
	srcs    []*wireSource
}

func (p *wrapProvider) Module(name string) (*sigtable.Table, sigtable.Source, error) {
	t0 := time.Now()
	tbl, src, err := p.inner.Module(name)
	p.fetchMS += since(t0)
	if err != nil {
		return nil, nil, err
	}
	ws := &wireSource{inner: src, rec: p.rec}
	p.srcs = append(p.srcs, ws)
	return tbl, ws, nil
}

// waits returns every blocking lookup wait seen so far, in µs.
func (p *wrapProvider) waits() sample {
	var all sample
	for _, s := range p.srcs {
		s.mu.Lock()
		all = append(all, s.lat...)
		s.mu.Unlock()
	}
	return all
}

// answer runs one recorded query against src.
func answer(src sigtable.Source, q single) sigtable.BatchRes {
	var r sigtable.BatchRes
	switch {
	case q.req.Kind == sigtable.BatchEdge:
		r.Touched, r.Err = src.LookupEdge(q.req.End, q.req.Want.Target)
	case q.all:
		r.Entry, r.Touched, r.Err = src.LookupAll(q.req.End, q.req.Sig)
	default:
		r.Entry, r.Touched, r.Err = src.Lookup(q.req.End, q.req.Sig, q.req.Want)
	}
	return r
}

// answerSum folds an answer into h: whether it is a hit, the touched
// addresses and, on a hit, the entry. Answers with the same verdict,
// entry and touched addresses fold alike; any difference changes the
// sum but for a 64-bit collision. Transport errors are not told apart
// from misses here: callers reject them first.
func answerSum(h uint64, r sigtable.BatchRes) uint64 {
	word := func(v uint64) { h = mix64(h ^ mix64(v)) }
	words := func(vs []uint64) {
		word(uint64(len(vs)))
		for _, v := range vs {
			word(v)
		}
	}
	if r.Err != nil {
		word(1)
		words(r.Touched)
		return h
	}
	word(0)
	words(r.Touched)
	e := r.Entry
	word(e.End)
	word(uint64(e.Hash))
	word(uint64(e.Term))
	words(e.Targets)
	words(e.RetPreds)
	return h
}

func u64Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
