package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rev/internal/core"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// Plane workload shape. Tenants, one per pool program, are independent
// clients of a two-shard ring; one generator offers their requests
// open-loop to at most NumCPU workers, so the host is never
// oversubscribed by the load itself.
const (
	planeShards = 2
	// planeSetups is how many times a run starts the ring; setup_s is
	// the median.
	planeSetups = 3
	// planeTailPct is the percentile of plane-mixed's latency_ms_tail and
	// of the max-rate probes' tail, over every lookup of a phase. The
	// tail rule would pick p99.9 at the nominal phase's ~30k lookups, but
	// on a 2-vCPU host that tail is the process's collector cycles and
	// the host's stalls: it moved 4.6-25 ms across ten runs, far past any
	// bound. The traced run reports the rule's tail as
	// plane.lookup_ms_tail.
	planeTailPct = 90
	// rotateRecords is how many table records the mid-run re-publish
	// changes.
	rotateRecords = 16
	// evidenceRetained is each tenant's evidence retention on the ring
	// (streams). Kept small so retained uploads do not dominate the
	// process heap the load generator shares.
	evidenceRetained = 4
	// Bisection bounds and resolution for max_rate_ops_s, and how many
	// probes must fail a rate before it counts as unsustained.
	rateLo, rateHi, rateTol = 1000.0, 64000.0, 0.03
	probeAttempts           = 3
	// saturationCap bounds the closed-loop phase's schedule (ops/s),
	// well above what the plane completes on any host it runs on.
	saturationCap = 40000
)

type opKind uint8

const (
	opLookup opKind = iota
	opBatch
	opPut
)

// planeOp is one scheduled request and, after it ran, its outcome.
// Times are offsets from the phase start.
type planeOp struct {
	kind   opKind
	tenant int
	idx    int // index into the recording (lookup, batch)
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	single sigtable.BatchRes
	batch  []sigtable.BatchRes
	ack    sigserve.EvidenceAck
	err    error
	// sum folds a lookup's or batch's answers (answerSum) and n counts
	// them; settle sets both and drops the answers.
	sum uint64
	n   int
}

// tenantConn is one tenant's client and lookup-mode source.
type tenantConn struct {
	name  string
	addrs []string
	in    *tenantInput
	c     *sigserve.Client
	src   *sigserve.RemoteSource
}

// openTenant connects a lookup-mode tenant to its replica set and opens
// its module: negotiation plus the snapshot fetch.
func openTenant(name string, addrs []string, in *tenantInput, set *telemetry.Set) (*tenantConn, error) {
	c, err := sigserve.NewClient(sigserve.ClientConfig{
		Addrs: addrs, Tenant: name, LookupMode: true, PoolSize: runtime.NumCPU(), Telemetry: set,
	})
	if err != nil {
		return nil, err
	}
	src, err := c.Source(in.module)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &tenantConn{name: name, addrs: addrs, in: in, c: c, src: src}, nil
}

// plane is a running two-shard ring with its tenants.
type plane struct {
	srvs   []*sigserve.Server
	regs   []*telemetry.Registry
	done   []chan error
	owner  map[string]int // tenant -> shard index
	tenant []*tenantConn
	// fetchMS is each tenant's open time in the set-up: negotiation and
	// snapshot fetch (ms). publishMS is the set-up's Publish time (ms).
	fetchMS   sample
	publishMS float64
}

// tenantInput is what one tenant replays: its own program's locally
// built table, a query stream recorded from a remote-lookup instance of
// that program, and a real cold-attested evidence stream of it.
type tenantInput struct {
	module string
	table  sigtable.Table
	// ref is the local copy of the table the plane currently serves.
	ref    *sigtable.Snapshot
	rec    *recording
	stream []byte
}

// prepareTenantInput builds one tenant's input from its program.
func prepareTenantInput(r *run, p *program) (*tenantInput, error) {
	local, err := core.Prepare(p.load, runConfig())
	if err != nil {
		return nil, err
	}
	defer local.Close()
	if len(local.Tables) != 1 {
		return nil, fmt.Errorf("plane-mixed replays one module, program has %d", len(local.Tables))
	}
	refRes, err := reference(local)
	if err != nil {
		return nil, err
	}
	ref := identitySig(refRes)
	st := local.Tables[0]
	in := &tenantInput{module: st.Module, table: *st.Table, ref: st.Snap, rec: &recording{}}

	// Record the query stream of one remote-lookup instance.
	a, err := startAuthority(nil)
	if err != nil {
		return nil, err
	}
	defer a.stop()
	wp := &wrapProvider{rec: in.rec}
	rt, _, err := newRemote(a, p, local, ref, "recorder", remoteOpts{
		rc:   remoteRunConfig(),
		wrap: func(tp core.TableProvider) core.TableProvider { wp.inner = tp; return wp },
	})
	if err != nil {
		return nil, err
	}
	_, _, _, err = checked(rt)
	rt.close()
	r.record(err)
	if len(in.rec.singles) == 0 || len(in.rec.batches) == 0 {
		return nil, errors.New("recorded query stream has no lookups or no batches")
	}

	// One cold-attested instance gives the evidence stream to put.
	at := &attestedTarget{
		prep: local, ref: ref, sources: tableSources(local),
		set:     &telemetry.Set{Reg: telemetry.NewRegistry()},
		binding: attestedBinding(p),
	}
	_, _, _, err = checked(at)
	r.record(err)
	in.stream = append([]byte(nil), at.buf.Bytes()...)
	return in, nil
}

// startPlane starts the ring, publishes each tenant's table on its
// owning shard and opens every tenant (tenant i replays ins[i]). It
// returns the plane and the set-up time in ms. clientSet, when non-nil,
// instruments the clients.
func startPlane(ins []*tenantInput, clientSet func() *telemetry.Set) (*plane, float64, error) {
	t0 := time.Now()
	pl := &plane{owner: map[string]int{}}
	lns := make([]net.Listener, planeShards)
	nodes := make([]sigserve.RingNode, planeShards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			pl.stop()
			return nil, 0, err
		}
		lns[i] = ln
		nodes[i] = sigserve.RingNode{ID: fmt.Sprintf("shard-%d", i), Addr: ln.Addr().String()}
	}
	ring, err := sigserve.NewRing(nodes, sigserve.RingConfig{Replicas: 1, Epoch: 1})
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, len(ins))
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	for i, ln := range lns {
		srv := sigserve.NewServer()
		reg := telemetry.NewRegistry()
		srv.Instrument(&telemetry.Set{Reg: reg})
		srv.SetEvidenceRetention(evidenceRetained, 0)
		if err := srv.SetRing(ring, nodes[i].ID, names); err != nil {
			return nil, 0, err
		}
		for k, n := range names {
			if srv.Owns(n) {
				tp := time.Now()
				srv.Publish(n, ins[k].module, ins[k].table, ins[k].ref)
				pl.publishMS += since(tp)
				pl.owner[n] = i
			}
		}
		done := make(chan error, 1)
		go func(ln net.Listener) { done <- srv.Serve(ln) }(ln)
		pl.srvs, pl.regs, pl.done = append(pl.srvs, srv), append(pl.regs, reg), append(pl.done, done)
	}
	for k, n := range names {
		var addrs []string
		for _, node := range ring.Replicas(n) {
			addrs = append(addrs, node.Addr)
		}
		var set *telemetry.Set
		if clientSet != nil {
			set = clientSet()
		}
		tf := time.Now()
		t, err := openTenant(n, addrs, ins[k], set)
		pl.fetchMS = append(pl.fetchMS, since(tf))
		if err != nil {
			pl.stop()
			return nil, 0, err
		}
		pl.tenant = append(pl.tenant, t)
	}
	return pl, since(t0), nil
}

// stop closes every tenant and shard and waits for the serve loops.
func (pl *plane) stop() {
	for _, t := range pl.tenant {
		t.c.Close()
	}
	for i, s := range pl.srvs {
		s.Close()
		<-pl.done[i]
	}
	pl.tenant, pl.srvs, pl.done = nil, nil, nil
}

// putPeriod is how many requests the plane's tenants send per evidence
// put: the mean over tenants of the requests (blocking lookups and
// batch frames) one recorded instance made, since that instance
// uploaded one stream.
func (pl *plane) putPeriod() int {
	var n int
	for _, t := range pl.tenant {
		n += len(t.in.rec.singles) + len(t.in.rec.batches)
	}
	return n / len(pl.tenant)
}

// schedule lays out rate·dur requests at fixed spacing, each for a
// tenant drawn from rng. A put goes in the middle of every putPeriod
// requests, so a phase of at least half a period holds one. Every other
// request is drawn uniformly from the tenant's recorded requests, so
// single lookups and batch frames come in the proportion the recorded
// instance sent them.
func (pl *plane) schedule(rng *rand.Rand, rate float64, dur time.Duration) []planeOp {
	n := int(rate * dur.Seconds())
	period := pl.putPeriod()
	ops := make([]planeOp, n)
	for i := range ops {
		op := &ops[i]
		op.due = time.Duration(float64(i) / rate * float64(time.Second))
		op.tenant = rng.Intn(len(pl.tenant))
		rec := pl.tenant[op.tenant].in.rec
		if i%period == period/2 {
			op.kind = opPut
			continue
		}
		j := rng.Intn(len(rec.singles) + len(rec.batches))
		if j < len(rec.singles) {
			op.kind, op.idx = opLookup, j
		} else {
			op.kind, op.idx = opBatch, j-len(rec.singles)
		}
	}
	return ops
}

// phase offers ops open-loop: one generator hands each request to the
// workers at its due time and never waits for an answer, so a slow
// plane queues work rather than slowing the offered load. The
// generator's own lateness is recorded per request (sent - due).
func (pl *plane) phase(ops []planeOp) {
	// Buffered to the whole schedule: the generator must never block
	// on busy workers, or its lateness would hide the plane's queue.
	ch := make(chan *planeOp, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range ch {
				pl.exec(op)
				op.done = time.Since(start)
				op.settle()
			}
		}()
	}
	defer pinPrecise()()
	for i := range ops {
		op := &ops[i]
		for d := op.due - time.Since(start); d > 0; d = op.due - time.Since(start) {
			sleepPrecise(d)
		}
		op.sent = time.Since(start)
		ch <- op
	}
	close(ch)
	wg.Wait()
}

// exec performs one request.
func (pl *plane) exec(op *planeOp) {
	t := pl.tenant[op.tenant]
	switch op.kind {
	case opLookup:
		op.single = answer(t.src, t.in.rec.singles[op.idx])
	case opBatch:
		op.batch = t.src.LookupBatch(t.in.rec.batches[op.idx])
	case opPut:
		op.ack, op.err = t.c.UploadEvidence(op.putName(), t.in.stream)
	}
}

// settle folds a lookup's or batch's answers into sum, keeping a
// transport error in err, and drops them. A phase that kept every
// answer until it is verified would grow the heap through the phase and
// lengthen each collection in it, which no tenant of the plane does.
func (op *planeOp) settle() {
	switch op.kind {
	case opLookup:
		op.fold(op.single)
	case opBatch:
		for _, res := range op.batch {
			op.fold(res)
		}
	}
	op.single, op.batch = sigtable.BatchRes{}, nil
}

func (op *planeOp) fold(res sigtable.BatchRes) {
	if res.Err != nil && !sigtable.IsMiss(res.Err) && op.err == nil {
		op.err = res.Err
	}
	op.sum = answerSum(op.sum, res)
	op.n++
}

// putName names an upload after its due time, unique within a phase.
func (op *planeOp) putName() string { return fmt.Sprintf("put-%d", op.due) }

// verify replays every request of a phase against the local table copy
// the plane was serving, recording one outcome per request.
func (pl *plane) verify(r *run, ops []planeOp) {
	for i := range ops {
		r.record(pl.check(&ops[i]))
	}
}

func (pl *plane) check(op *planeOp) error {
	in := pl.tenant[op.tenant].in
	var want planeOp
	switch op.kind {
	case opLookup:
		q := in.rec.singles[op.idx]
		want.fold(answer(in.ref, q))
		if op.err != nil {
			return fmt.Errorf("lookup %#x: %w", q.req.End, op.err)
		}
		if op.sum != want.sum {
			return fmt.Errorf("lookup %#x: served answer differs from the local table", q.req.End)
		}
	case opBatch:
		reqs := in.rec.batches[op.idx]
		for _, q := range reqs {
			want.fold(answer(in.ref, single{req: q}))
		}
		switch {
		case op.err != nil:
			return fmt.Errorf("batch of %d: %w", len(reqs), op.err)
		case op.n != want.n:
			return fmt.Errorf("batch of %d answered with %d results", len(reqs), op.n)
		case op.sum != want.sum:
			return fmt.Errorf("batch of %d at %#x: served answers differ from the local table", len(reqs), reqs[0].End)
		}
	case opPut:
		if op.err != nil {
			return fmt.Errorf("evidence put: %w", op.err)
		}
		if op.ack.Bytes != uint64(len(in.stream)) {
			return fmt.Errorf("evidence put acknowledged %d bytes, sent %d", op.ack.Bytes, len(in.stream))
		}
	}
	return nil
}

// phaseStats are one phase's latencies: lookups and batches from their
// due time (ms), puts from their due time (ms), lookup service time from
// the send (µs) and generator lateness (µs).
type phaseStats struct {
	lookupMS, putMS, serviceUS, lateUS sample
}

func statsOf(ops []planeOp) phaseStats {
	var s phaseStats
	for i := range ops {
		op := &ops[i]
		lat := float64((op.done - op.due).Nanoseconds()) / 1e6
		s.lateUS = append(s.lateUS, float64((op.sent-op.due).Nanoseconds())/1e3)
		if op.kind == opPut {
			s.putMS = append(s.putMS, lat)
			continue
		}
		s.lookupMS = append(s.lookupMS, lat)
		s.serviceUS = append(s.serviceUS, float64((op.done-op.sent).Nanoseconds())/1e3)
	}
	return s
}

// sustains reports whether a phase met the latency limit without a
// growing backlog: the lookup tail (planeTailPct over every lookup of
// the phase) is under the limit and the median latency of the last
// quarter of lookups stays under half of it.
func (s phaseStats) sustains() bool {
	last := s.lookupMS[len(s.lookupMS)*3/4:]
	return s.lookupMS.pct(planeTailPct) < latencyLimitMS && last.median() < latencyLimitMS/2
}

// merge joins two phases' statistics.
func (s phaseStats) merge(o phaseStats) phaseStats {
	return phaseStats{
		lookupMS:  append(s.lookupMS, o.lookupMS...),
		putMS:     append(s.putMS, o.putMS...),
		serviceUS: append(s.serviceUS, o.serviceUS...),
		lateUS:    append(s.lateUS, o.lateUS...),
	}
}

// maxRate finds the highest rate probe accepts by geometric bisection
// between lo and hi, to a relative resolution of tol. It assumes hi
// fails; when lo fails too it halves lo until a rate passes or lo drops
// below min, returning 0 then.
func maxRate(probe func(rate float64) bool, lo, hi, tol, min float64) float64 {
	for !probe(lo) {
		hi, lo = lo, lo/2
		if lo < min {
			return 0
		}
	}
	for hi/lo > 1+tol {
		mid := math.Sqrt(lo * hi)
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rotate returns a copy of in's table with up to rotateRecords records
// changed, drawn from the records its recorded queries touch, and the
// copy's wire image.
func (in *tenantInput) rotate(rng *rand.Rand) (*sigtable.Snapshot, []byte, error) {
	wire := in.ref.AppendWire(nil)
	touched := map[uint64]bool{}
	for _, q := range in.rec.singles {
		for _, addr := range answer(in.ref, q).Touched {
			if addr >= in.table.Base+sigtable.HeaderSize {
				idx := (addr - in.table.Base - sigtable.HeaderSize) / sigtable.RecordSize
				if idx < in.table.Records {
					touched[idx] = true
				}
			}
		}
	}
	idxs := make([]uint64, 0, len(touched))
	for i := range touched {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	rng.Shuffle(len(idxs), func(a, b int) { idxs[a], idxs[b] = idxs[b], idxs[a] })
	if len(idxs) > rotateRecords {
		idxs = idxs[:rotateRecords]
	}
	for _, i := range idxs {
		wire[i*sigtable.RecordSize] ^= 0x5a
	}
	snap, err := sigtable.SnapshotFromWire(in.table, wire)
	if err != nil {
		return nil, nil, fmt.Errorf("rotating the table: %w", err)
	}
	return snap, wire, nil
}

// republish rotates every tenant's table, publishes it on the owning
// shard, and has every open tenant client pick it up by snapshot delta.
// Each client's refresh is one checked operation: it must land on the
// new epoch through the delta path (no full fetch), and a full fetch
// afterwards must return the published image byte for byte.
func (pl *plane) republish(r *run, rng *rand.Rand) error {
	type rotation struct {
		snap  *sigtable.Snapshot
		wire  []byte
		epoch uint64
	}
	rot := map[*tenantInput]*rotation{}
	before := pl.counters()
	for _, t := range pl.tenant {
		if rot[t.in] != nil {
			continue
		}
		snap, wire, err := t.in.rotate(rng)
		if err != nil {
			return err
		}
		epoch := pl.srvs[pl.owner[t.name]].Publish(t.name, t.in.module, t.in.table, snap)
		rot[t.in] = &rotation{snap: snap, wire: wire, epoch: epoch}
	}
	for _, t := range pl.tenant {
		err := t.src.Refresh()
		if want := rot[t.in].epoch; err == nil && t.src.Epoch() != want {
			err = fmt.Errorf("tenant %s refreshed to epoch %d, published %d", t.name, t.src.Epoch(), want)
		}
		r.record(err)
	}
	after := pl.counters()
	if after.deltaHits-before.deltaHits != uint64(len(pl.tenant)) || after.snapshots != before.snapshots {
		r.record(fmt.Errorf("delta refresh: %d delta hits and %d full fetches for %d tenant clients",
			after.deltaHits-before.deltaHits, after.snapshots-before.snapshots, len(pl.tenant)))
	}
	for _, t := range pl.tenant {
		snap, _, _, err := t.c.FetchSnapshot(t.in.module)
		if err == nil && !bytes.Equal(snap.AppendWire(nil), rot[t.in].wire) {
			err = fmt.Errorf("tenant %s: full fetch differs from the published image", t.name)
		}
		r.record(err)
	}
	for in, rt := range rot {
		in.ref = rt.snap
	}
	return nil
}

// planeCounters sums the shards' server counters.
type planeCounters struct {
	deltaHits, deltaFulls, snapshots uint64
}

func (pl *plane) counters() planeCounters {
	var c planeCounters
	for _, reg := range pl.regs {
		s := reg.Snapshot()
		c.deltaHits += s.Counters["sigserve_server_delta_hits_total"]
		c.deltaFulls += s.Counters["sigserve_server_delta_fulls_total"]
		c.snapshots += s.Counters["sigserve_server_snapshots_total"]
	}
	return c
}

// planeRun is the state shared by the untraced and traced plane runs.
type planeRun struct {
	ins     []*tenantInput
	pl      *plane
	setupMS sample
	setupMB float64
	rng     *rand.Rand
}

// startPlaneRun builds one tenant input per pool program and starts the
// ring planeSetups times, keeping the last. setupMB is the last set-up's
// allocation.
func startPlaneRun(r *run, clientSet func() *telemetry.Set) (*planeRun, error) {
	pool, err := genPool(r)
	if err != nil {
		return nil, err
	}
	pr := &planeRun{rng: rand.New(rand.NewSource(r.seed))}
	for _, p := range pool {
		in, err := prepareTenantInput(r, p)
		if err != nil {
			return nil, err
		}
		pr.ins = append(pr.ins, in)
	}
	for i := 0; i < planeSetups; i++ {
		if pr.pl != nil {
			pr.pl.stop()
		}
		runtime.GC()
		a0 := totalAlloc()
		pl, ms, err := startPlane(pr.ins, clientSet)
		if err != nil {
			return nil, err
		}
		pr.setupMB = float64(totalAlloc()-a0) / 1e6
		pr.pl, pr.setupMS = pl, append(pr.setupMS, ms)
	}
	return pr, nil
}

// probeDur is the length of one bisection probe.
func probeDur(r *run) time.Duration {
	return time.Duration(math.Max(0.25, r.seconds/16) * float64(time.Second))
}

// bisect finds max_rate_ops_s, checking every request it sends. A rate
// fails only when probeAttempts probes in a row fail it: a host stall
// during one probe is not the plane's capacity, while a rate the plane
// cannot sustain fails every time.
func (pr *planeRun) bisect(r *run) float64 {
	return maxRate(func(rate float64) bool {
		for i := 0; i < probeAttempts; i++ {
			ops := pr.pl.schedule(pr.rng, rate, probeDur(r))
			runtime.GC()
			pr.pl.phase(ops)
			pr.pl.verify(r, ops)
			if statsOf(ops).sustains() {
				return true
			}
		}
		return false
	}, rateLo, rateHi, rateTol, 50)
}

// phaseDur is share of the measured time, but at least one put period
// at the nominal rate, so every nominal phase holds an evidence put.
func (pr *planeRun) phaseDur(r *run, share float64) time.Duration {
	s := math.Max(r.seconds*share, float64(pr.pl.putPeriod())/nominalRate)
	return time.Duration(s * float64(time.Second))
}

// nominal offers the nominal rate for dur, verifies it and returns its
// statistics and the allocation it made in MB (verification excluded).
func (pr *planeRun) nominal(r *run, dur time.Duration) (phaseStats, float64) {
	ops := pr.pl.schedule(pr.rng, nominalRate, dur)
	runtime.GC()
	a0 := totalAlloc()
	pr.pl.phase(ops)
	mb := float64(totalAlloc()-a0) / 1e6
	pr.pl.verify(r, ops)
	return statsOf(ops), mb
}

// saturate offers the mix closed-loop for dur: NumCPU workers each send
// their next request as soon as the last one is answered. It returns the
// completed requests per second — the plane's capacity — and checks
// every request it sent.
func (pr *planeRun) saturate(r *run, dur time.Duration) float64 {
	// More requests than the workers can complete in dur.
	ops := pr.pl.schedule(pr.rng, saturationCap, dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				pr.pl.exec(&ops[i])
				ops[i].settle()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	done := ops[:min(next.Load(), int64(len(ops)))]
	pr.pl.verify(r, done)
	return float64(len(done)) / elapsed
}

// runPlaneMixed: set-up, the closed-loop capacity, then the nominal rate
// in two halves with the tables re-published between them.
func runPlaneMixed(r *run) error {
	pr, err := startPlaneRun(r, nil)
	if err != nil {
		return err
	}
	defer pr.pl.stop()
	capacity := pr.saturate(r, time.Duration(r.seconds/4*float64(time.Second)))
	half := pr.phaseDur(r, 0.375)
	s1, mb1 := pr.nominal(r, half)
	if err := pr.pl.republish(r, pr.rng); err != nil {
		return err
	}
	s2, mb2 := pr.nominal(r, half)
	s := s1.merge(s2)
	r.stamp.TailPercentile, r.stamp.TailSamples = planeTailPct, len(s.lookupMS)
	r.set("setup_s", pr.setupMS.median()/1000, "s")
	r.set("latency_ms_p50", s.lookupMS.median(), "ms")
	r.set("latency_ms_tail", s.lookupMS.pct(planeTailPct), "ms")
	r.set("throughput_per_s", capacity, "1/s")
	r.set("alloc_mb", pr.setupMB+mb1+mb2, "MB")
	return nil
}
