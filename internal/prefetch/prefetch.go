// Package prefetch hides remote signature-lookup latency behind the
// control-flow graph: a predictor walks likely successors ahead of the
// committed block and issues coalesced, deduplicated batch lookups
// through a sigtable.BatchSource (in practice a sigserve.RemoteSource in
// per-entry lookup mode) into a bounded buffer that fronts the engine's
// signature source.
//
// The design mirrors the paper's signature cache, whose entries carry
// MRU successor/predecessor slots precisely because the CFG predicts
// where execution goes next (Sec. V.B): the predictor seeds from the
// static cfg.Block.Succs and refines each block's choice with a
// per-block MRU successor slot trained from observed commits.
//
// Correctness contract — prefetch is pure latency hiding, never a
// semantic shortcut:
//
//   - A buffered result is served only on an exact query-key match
//     (module, kind, terminator, signature, and the full Want). The
//     server answers deterministically per key within one table epoch,
//     so a buffer hit returns bit-for-bit what the blocking lookup
//     would have: same entry, same touched-address list (same miss-walk
//     timing), same miss verdict.
//   - Any prediction miss, buffer overflow (entries are evicted by
//     overwrite), epoch change, or failed speculative batch falls back
//     to the blocking lookup — today's behavior, including its
//     degrade-to-snapshot path and SourceNote reporting. Speculative
//     transport failures are dropped, never cached and never surfaced.
//
// One Prefetcher serves all engines over one core.Prepared: the fill
// side is a single goroutine (single-writer buffer, lock-free reads),
// commit observations arrive over a bounded channel that drops under
// pressure (a dropped observation only costs prediction coverage).
package prefetch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rev/internal/cfg"
	"rev/internal/chash"
	"rev/internal/isa"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// Config tunes the predictor. The zero value disables prefetching.
type Config struct {
	// Depth is how many not-yet-buffered predicted queries one batch
	// gathers before issuing (0 disables prefetching entirely). Each
	// batch costs one wire round trip, so the effective per-miss
	// latency divides by roughly Depth when predictions hold.
	Depth int
	// Degree bounds how many successors the walk explores per block
	// (MRU-trained choice first, then static CFG order). Default 2 —
	// both arms of a conditional branch.
	Degree int
	// Buffer is the prefetch-buffer slot count (rounded up to a power
	// of two; default 8192). The buffer is direct-mapped: a colliding
	// fill overwrites, and the overwritten query simply misses back to
	// the blocking path.
	Buffer int
}

func (c Config) withDefaults() Config {
	if c.Degree <= 0 {
		c.Degree = 2
	}
	if c.Buffer <= 0 {
		c.Buffer = 8192
	}
	return c
}

// Module is one module's prediction inputs: its reference CFG (for
// successor enumeration and block synthesis) and the batch-capable
// remote source its lookups go to.
type Module struct {
	// Name is the module name (matches the engine's SAG region).
	Name string
	// Graph is the module's reference CFG; the walk reads Graph.Module
	// for code bytes when computing predicted block signatures.
	Graph *cfg.Graph
	// Src answers the speculative batches and the fallback lookups.
	Src sigtable.BatchSource
}

// Stats is an atomic snapshot of prefetcher activity. Accuracy of the
// predictor is Hits / (Hits + Late + Misses) over the engine-visible
// lookup stream.
type Stats struct {
	// Issued counts speculative queries sent to the source.
	Issued uint64
	// Batches counts speculative batch calls (≈ wire round trips).
	Batches uint64
	// Filled counts buffer fills (speculative answers cached).
	Filled uint64
	// FillFailed counts speculative queries dropped on transport error.
	FillFailed uint64
	// Hits counts engine lookups served from the buffer.
	Hits uint64
	// Late counts engine lookups that missed the buffer but coalesced
	// with a speculative fetch already in flight (partial hiding).
	Late uint64
	// Misses counts engine lookups that fell back to a full blocking
	// round trip (prediction miss, overflow, or prefetch disabled-path).
	Misses uint64
	// Stale counts buffer entries discarded on table-epoch change.
	Stale uint64
	// Wasted counts filled entries overwritten before any engine read
	// them (mispredicted or too-deep speculation).
	Wasted uint64
	// DroppedObserves counts commit observations dropped because the
	// event channel was full (costs prediction coverage only).
	DroppedObserves uint64
}

// counters is the always-on atomic mirror of Stats.
type counters struct {
	issued, batches, filled, fillFailed atomic.Uint64
	hits, late, misses, stale           atomic.Uint64
	wasted, droppedObserves             atomic.Uint64
}

// event is one observed commit: the committed block's terminator, the
// address control flowed to, and the terminator kind.
type event struct {
	end, next uint64
	term      isa.Kind
}

// Prefetcher drives prediction and speculative fills for every module
// of one prepared workload. Construct with New, wire its per-module
// facades via SourceFor, and Close it when the Prepared is done with.
type Prefetcher struct {
	cfg    Config
	format sigtable.Format
	mods   []*moduleState

	events chan event
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	buf *buffer

	// inflight tracks keys currently in a speculative batch so the
	// fallback path can classify its miss as "late" (coalesces with the
	// batch inside the client) versus a plain miss. Touched only on
	// engine miss paths and batch issue/fill — never on buffer hits.
	inflightMu sync.Mutex
	inflight   map[qkey]struct{}

	// mru maps a block terminator to the successor start observed most
	// recently — the paper's SC MRU successor slot, lifted into the
	// predictor. Prefetch-goroutine only.
	mru map[uint64]uint64

	// backlog is the static warm-up sweep: every query the engine could
	// legally issue against the statically known CFG, enumerated once at
	// construction. Batch slots the frontier walk leaves unused drain it
	// front to back, so buffer coverage accumulates toward the full
	// static query set while the walk keeps priority on the live path.
	// Prefetch-goroutine only (after New).
	backlog    []planned
	backlogPos int

	ctr counters
	tel *prefetchTelemetry
}

// moduleState is one module's goroutine-local prediction state.
type moduleState struct {
	idx         int
	name        string
	g           *cfg.Graph
	src         sigtable.BatchSource
	base, limit uint64
	// static holds the reference signature of every static block,
	// indexed like g.Starts, hashed once at construction; nil in
	// CFIOnly format, whose queries carry no signature. synthSigs
	// memoizes the signatures of synthesized blocks by start address.
	// The analysis image is never executed, so both are stable. (If the
	// measured instance self-modifies code, its runtime signature
	// diverges and the query key simply never matches — blocking
	// fallback, exactly as unprefetched.)
	static    []chash.Sig
	synthSigs map[uint64]chash.Sig
	// synth caches blocks synthesized at starts the static enumeration
	// never produced.
	synth map[uint64]*cfg.Block
}

// New builds a Prefetcher over the given modules and starts its fill
// goroutine. format must match the engine's validation format (it
// decides which queries carry target checks). The telemetry Set is
// optional; nil disables instrumentation (the atomic Stats stay on).
func New(c Config, format sigtable.Format, mods []Module, set *telemetry.Set) (*Prefetcher, error) {
	c = c.withDefaults()
	if c.Depth <= 0 {
		return nil, fmt.Errorf("prefetch: Config.Depth must be positive")
	}
	p := &Prefetcher{
		cfg:      c,
		format:   format,
		events:   make(chan event, 4096),
		stop:     make(chan struct{}),
		buf:      newBuffer(c.Buffer),
		inflight: make(map[qkey]struct{}),
		mru:      make(map[uint64]uint64),
		tel:      newPrefetchTelemetry(set),
	}
	for i, m := range mods {
		if m.Graph == nil || m.Src == nil {
			return nil, fmt.Errorf("prefetch: module %q needs a Graph and a Src", m.Name)
		}
		p.mods = append(p.mods, &moduleState{
			idx:       i,
			name:      m.Name,
			g:         m.Graph,
			src:       m.Src,
			base:      m.Graph.Module.Base,
			limit:     m.Graph.Module.Limit(),
			synthSigs: make(map[uint64]chash.Sig),
			synth:     make(map[uint64]*cfg.Block),
		})
	}
	if len(p.mods) == 0 {
		return nil, fmt.Errorf("prefetch: no modules")
	}
	p.buildBacklog()
	p.wg.Add(1)
	go p.run()
	return p, nil
}

// SourceFor returns the buffer-fronting sigtable.Source facade for the
// named module (nil if the module is unknown). The facade also
// implements sigtable.HealthReporter (delegating to the underlying
// source) and sigtable.CommitObserver (feeding the predictor).
func (p *Prefetcher) SourceFor(module string) sigtable.Source {
	for _, ms := range p.mods {
		if ms.name == module {
			return &source{p: p, ms: ms}
		}
	}
	return nil
}

// Close stops the fill goroutine. Idempotent; in-flight batches finish
// first (their fills land harmlessly in the buffer).
func (p *Prefetcher) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Stats returns an atomic snapshot of prefetcher activity.
func (p *Prefetcher) Stats() Stats {
	return Stats{
		Issued:          p.ctr.issued.Load(),
		Batches:         p.ctr.batches.Load(),
		Filled:          p.ctr.filled.Load(),
		FillFailed:      p.ctr.fillFailed.Load(),
		Hits:            p.ctr.hits.Load(),
		Late:            p.ctr.late.Load(),
		Misses:          p.ctr.misses.Load(),
		Stale:           p.ctr.stale.Load(),
		Wasted:          p.ctr.wasted.Load(),
		DroppedObserves: p.ctr.droppedObserves.Load(),
	}
}

// Accuracy returns Hits / (Hits + Late + Misses), or 1 when no lookup
// missed the signature cache at all.
func (s Stats) Accuracy() float64 {
	total := s.Hits + s.Late + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// observe enqueues one commit event, dropping (and counting) when the
// channel is full — the commit path must never block on the predictor.
func (p *Prefetcher) observe(end, next uint64, term isa.Kind) {
	select {
	case p.events <- event{end: end, next: next, term: term}:
	default:
		p.ctr.droppedObserves.Add(1)
		if t := p.tel; t != nil && t.dropped != nil {
			t.dropped.Inc()
		}
	}
}

// run is the fill goroutine: drain observations (training the MRU slot
// on every one), predict forward from the newest frontier, top the plan
// up from the static backlog sweep, issue one speculative batch per
// module touched, fill the buffer, repeat. While backlog remains, the
// loop does not wait for commits — the sweep warms the buffer from
// construction on, ahead of the first observation.
func (p *Prefetcher) run() {
	defer p.wg.Done()
	for {
		var ev event
		gotEv := false
		if p.backlogPos < len(p.backlog) {
			select {
			case <-p.stop:
				return
			case ev = <-p.events:
				gotEv = true
			default:
			}
		} else {
			select {
			case <-p.stop:
				return
			case ev = <-p.events:
				gotEv = true
			}
		}
		var plan []planned
		if gotEv {
			// Drain the event backlog: every observation trains the MRU
			// successor slot, the newest one becomes the prediction
			// frontier.
		drain:
			for {
				select {
				case e2 := <-p.events:
					p.mru[ev.end] = ev.next
					ev = e2
				default:
					break drain
				}
			}
			p.mru[ev.end] = ev.next
			plan = p.predict(ev)
		}
		p.topUp(&plan)
		if len(plan) > 0 {
			p.issue(plan)
		}
	}
}

// topUp fills depth budget the frontier walk left unused from the
// static backlog, skipping (and permanently passing) queries already
// covered. The cursor only moves forward, so the sweep terminates even
// when everything left is already buffered.
func (p *Prefetcher) topUp(plan *[]planned) {
	var seen map[qkey]bool
	if len(*plan) > 0 {
		seen = make(map[qkey]bool, len(*plan))
		for _, pl := range *plan {
			seen[pl.key] = true
		}
	}
	for len(*plan) < p.cfg.Depth && p.backlogPos < len(p.backlog) {
		it := p.backlog[p.backlogPos]
		p.backlogPos++
		if seen[it.key] || p.buf.peek(it.key) || p.inFlight(it.key) {
			continue
		}
		*plan = append(*plan, it)
	}
}

// issue groups a prediction plan by module and performs one speculative
// batch call per module, filling the buffer with every answered query.
func (p *Prefetcher) issue(plan []planned) {
	p.inflightMu.Lock()
	for _, pl := range plan {
		p.inflight[pl.key] = struct{}{}
	}
	p.inflightMu.Unlock()

	for _, ms := range p.mods {
		var reqs []sigtable.BatchReq
		var keys []qkey
		for _, pl := range plan {
			if pl.ms == ms {
				reqs = append(reqs, pl.req)
				keys = append(keys, pl.key)
			}
		}
		if len(reqs) == 0 {
			continue
		}
		p.ctr.issued.Add(uint64(len(reqs)))
		p.ctr.batches.Add(1)
		var t0 time.Time
		if t := p.tel; t != nil {
			t.batchBegin(len(reqs))
			t0 = time.Now()
		}
		res := ms.src.LookupBatch(reqs)
		epoch := ms.src.LiveEpoch()
		var filled, failed uint64
		for i, r := range res {
			if i >= len(keys) {
				break
			}
			if r.Err != nil && !sigtable.IsMiss(r.Err) {
				failed++ // transport failure: drop, never cache
				continue
			}
			if p.buf.put(&bufEntry{
				key: keys[i], entry: r.Entry, touched: r.Touched,
				err: r.Err, epoch: epoch,
			}) {
				p.ctr.wasted.Add(1)
				if t := p.tel; t != nil && t.wasted != nil {
					t.wasted.Inc()
				}
			}
			filled++
		}
		p.ctr.filled.Add(filled)
		p.ctr.fillFailed.Add(failed)
		if t := p.tel; t != nil {
			if t.filled != nil {
				t.filled.Add(filled)
			}
			if t.failed != nil {
				t.failed.Add(failed)
			}
			t.batchEnd(len(reqs), time.Since(t0))
		}
	}

	p.inflightMu.Lock()
	for _, pl := range plan {
		delete(p.inflight, pl.key)
	}
	p.inflightMu.Unlock()
}

// inFlight reports whether key is currently part of a speculative batch.
func (p *Prefetcher) inFlight(k qkey) bool {
	p.inflightMu.Lock()
	_, ok := p.inflight[k]
	p.inflightMu.Unlock()
	return ok
}

// moduleAt resolves the module containing addr (nil when none does).
func (p *Prefetcher) moduleAt(addr uint64) *moduleState {
	for _, ms := range p.mods {
		if addr >= ms.base && addr <= ms.limit {
			return ms
		}
	}
	return nil
}
