package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// allocRuns is how many steady instances per program fall inside the
// alloc_mb window, after setup, the reference run and the warm-up. A
// fixed count keeps alloc_mb independent of host speed; it also
// guarantees every program enough steady instances for its median.
const allocRuns = 5

// target is one prepared program of a simulation workload.
type target interface {
	// run executes one validated instance the way a user of the
	// workload does and returns the host time they wait for it in ms.
	run() (ms float64, res *core.Result, err error)
	// check verifies the outputs of the instance run just returned.
	check(res *core.Result) error
	close()
}

// checked runs one instance and checks it. The checks run after the
// clock stops; their allocation is returned in checkBytes. No collection
// is forced between instances: the collector's cost of one instance's
// garbage lands in the instances that follow, as it would in a user's
// steady loop.
func checked(t target) (ms float64, res *core.Result, checkBytes uint64, err error) {
	ms, res, err = t.run()
	if err != nil {
		return ms, nil, 0, err
	}
	a0 := totalAlloc()
	err = t.check(res)
	return ms, res, totalAlloc() - a0, err
}

// setupFn prepares one pool program. It returns the target, the
// set-up time a user of the workload waits (in ms), and any error.
type setupFn func(p *program) (target, float64, error)

// simTotals are the figures one simulation run measures.
type simTotals struct {
	setupMS sample   // per program
	allocMB sample   // per program
	lat     []sample // per program: steady instance times, ms
	// blocks and wallS are the validated blocks and the wall seconds,
	// checks taken out, of the round-robin phase.
	blocks uint64
	wallS  float64
}

// runSim drives a simulation workload: per program, set-up, a warm-up
// instance and allocRuns instances inside the alloc window; then, after
// one collection, instances round-robin over the pool for the measured
// phase, until it ends or the workload's maxSteady instances are in
// (at least one round).
func runSim(r *run, setup setupFn) (*simTotals, []target, error) {
	pool, err := genPool(r)
	if err != nil {
		return nil, nil, err
	}
	t := &simTotals{}
	var targets []target
	t.lat = make([]sample, len(pool))
	// steady runs one steady instance of program k and returns the
	// checks' allocation and wall time and the blocks it validated.
	steady := func(k int) (checkBytes uint64, checkS float64, blocks uint64) {
		t0 := time.Now()
		ms, res, cb, err := checked(targets[k])
		r.record(err)
		checkS = time.Since(t0).Seconds() - ms/1000
		if err == nil {
			t.lat[k] = append(t.lat[k], ms)
			blocks = res.Engine.ValidatedBlocks
		}
		return cb, checkS, blocks
	}
	for k, p := range pool {
		runtime.GC()
		a0 := totalAlloc()
		var checkBytes uint64
		tg, setupMS, err := setup(p)
		if err != nil {
			closeAll(targets)
			return nil, nil, err
		}
		targets = append(targets, tg)
		t.setupMS = append(t.setupMS, setupMS)
		_, _, cb, err := checked(tg) // warm-up: checked, not in the statistics
		r.record(err)
		checkBytes += cb
		for i := 0; i < allocRuns; i++ {
			cb, _, _ := steady(k)
			checkBytes += cb
		}
		t.allocMB = append(t.allocMB, float64(totalAlloc()-a0-checkBytes)/1e6)
	}
	runtime.GC()
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	var checkS float64
	for i := 0; i < len(pool) || time.Now().Before(deadline) && len(pool)*allocRuns+i < r.def.maxSteady; i++ {
		_, cs, blocks := steady(i % len(targets))
		checkS += cs
		t.blocks += blocks
	}
	t.wallS = time.Since(start).Seconds() - checkS
	return t, targets, nil
}

// report sets the end-to-end metrics of a simulation run.
func (t *simTotals) report(r *run) error {
	p50, tail, pct, n, ok := poolLatency(t.lat)
	if !ok {
		return fmt.Errorf("only %d steady instances: too few for a tail", n)
	}
	r.stamp.TailPercentile, r.stamp.TailSamples = pct, n
	r.set("setup_s", t.setupMS.median()/1000, "s")
	r.set("latency_ms_p50", p50, "ms")
	r.set("latency_ms_tail", tail, "ms")
	r.set("throughput_per_s", float64(t.blocks)/t.wallS, "1/s")
	r.set("alloc_mb", t.allocMB.median(), "MB")
	return nil
}

func closeAll(ts []target) {
	for _, t := range ts {
		t.close()
	}
}

// runSimWorkload is runSim followed by the end-to-end report.
func runSimWorkload(r *run, setup setupFn, cleanup func()) error {
	t, targets, err := runSim(r, setup)
	defer cleanup()
	if err != nil {
		return err
	}
	closeAll(targets)
	return t.report(r)
}

// ---- hot-local ------------------------------------------------------

// localTarget runs serial arena instances over local snapshot tables.
type localTarget struct {
	prep *core.Prepared
	ref  string
	out  core.Result
}

func setupHotLocal(p *program) (target, float64, error) {
	t0 := time.Now()
	prep, err := core.Prepare(p.load, runConfig())
	setupMS := since(t0)
	if err != nil {
		return nil, 0, err
	}
	refRes, err := reference(prep)
	if err != nil {
		return nil, 0, err
	}
	ref := identitySig(refRes)
	return &localTarget{prep: prep, ref: ref}, setupMS, nil
}

func (t *localTarget) run() (float64, *core.Result, error) {
	t0 := time.Now()
	res, err := t.prep.RunInstance(core.InstanceOptions{Out: &t.out})
	return since(t0), res, err
}

func (t *localTarget) check(res *core.Result) error { return checkResult(t.ref, res) }

func (t *localTarget) close() { t.prep.Close() }

func runHotLocal(r *run) error { return runSimWorkload(r, setupHotLocal, func() {}) }

// ---- cold-attested --------------------------------------------------

// attestedTarget runs the production prover shape: auto-sized pipeline
// lanes, a fresh evidence emitter per instance, metrics registry on.
type attestedTarget struct {
	prep    *core.Prepared
	ref     string
	sources map[string]sigtable.Source
	set     *telemetry.Set
	binding string
	buf     streamBuf
	out     core.Result
	// lastStats is the emitter's post-run stats of the last instance.
	lastStats evidence.Stats
	// first is the first checked instance's evidence stream; every later
	// one must equal it byte for byte.
	first []byte
}

// newAttested prepares one cold-attested program on the shared metrics
// set.
func newAttested(p *program, set *telemetry.Set) (*attestedTarget, float64, error) {
	t0 := time.Now()
	prep, err := core.Prepare(p.load, runConfig())
	setupMS := since(t0)
	if err != nil {
		return nil, 0, err
	}
	refRes, err := reference(prep)
	if err != nil {
		return nil, 0, err
	}
	ref := identitySig(refRes)
	return &attestedTarget{
		prep: prep, ref: ref, sources: tableSources(prep), set: set,
		binding: attestedBinding(p),
	}, setupMS, nil
}

// attestedBinding is the evidence binding string of a cold-attested
// program's streams.
func attestedBinding(p *program) string {
	return fmt.Sprintf("revperf cold-attested seed %d", p.seed)
}

func (t *attestedTarget) run() (float64, *core.Result, error) {
	em := t.buf.emitter(evidence.Config{Binding: t.binding, Telemetry: t.set})
	t0 := time.Now()
	res, err := t.prep.RunInstance(core.InstanceOptions{Lanes: -1, Telemetry: t.set, Evidence: em, Out: &t.out})
	ms := since(t0)
	t.lastStats = em.Stats()
	return ms, res, err
}

func (t *attestedTarget) check(res *core.Result) error {
	if err := checkResult(t.ref, res); err != nil {
		return err
	}
	if err := sameStream(&t.first, t.buf.Bytes()); err != nil {
		return err
	}
	return checkStream(t.buf.Bytes(), t.sources, res)
}

func (t *attestedTarget) close() { t.prep.Close() }

func runColdAttested(r *run) error {
	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	return runSimWorkload(r, func(p *program) (target, float64, error) {
		return newAttested(p, set)
	}, func() {})
}

// ---- remote-lookup --------------------------------------------------

// authority is an in-process signature server on loopback: it holds the
// locally built tables and serves them to lookup-mode clients.
type authority struct {
	srv  *sigserve.Server
	addr string
	done chan error
}

// startAuthority serves a fresh server on a loopback port.
func startAuthority(set *telemetry.Set) (*authority, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &authority{srv: sigserve.NewServer(), addr: ln.Addr().String(), done: make(chan error, 1)}
	if set != nil {
		a.srv.Instrument(set)
	}
	go func() { a.done <- a.srv.Serve(ln) }()
	return a, nil
}

// stop closes the server and waits for its serve loop to return.
func (a *authority) stop() {
	a.srv.Close()
	<-a.done
}

// publish serves a locally prepared program's tables under tenant.
func (a *authority) publish(tenant string, local *core.Prepared) {
	for _, st := range local.Tables {
		a.srv.Publish(tenant, st.Module, *st.Table, st.Snap)
	}
}

// clientConfig is the lookup-mode client every remote tenant uses. The
// connection pool is capped at the CPU count (the default is 4).
func clientConfig(addr, tenant string, set *telemetry.Set) sigserve.ClientConfig {
	return sigserve.ClientConfig{
		Addr: addr, Tenant: tenant, LookupMode: true,
		PoolSize: runtime.NumCPU(), Telemetry: set,
	}
}

// remoteRunConfig is runConfig with prefetching on.
func remoteRunConfig() core.RunConfig {
	rc := runConfig()
	rc.Prefetch = prefetch.Config{Depth: prefetchDepth}
	return rc
}

// remoteTarget runs serial instances whose tables come from the
// authority in lookup mode, each uploading its evidence stream.
type remoteTarget struct {
	prep    *core.Prepared
	client  *sigserve.Client
	ref     string
	sources map[string]sigtable.Source
	tenant  string
	buf     streamBuf
	out     core.Result
	n       int
	// Of the last instance: the upload acknowledgement and the emitter's
	// stats.
	ack       sigserve.EvidenceAck
	lastStats evidence.Stats
	// uploads is every upload's time (ms).
	uploads sample
	// publishMS is the set-up's Publish time (ms).
	publishMS float64
	// first is the first checked instance's evidence stream.
	first []byte
}

// remoteOpts selects what a remote target wraps for a traced run.
type remoteOpts struct {
	set  *telemetry.Set                              // client metrics
	wrap func(core.TableProvider) core.TableProvider // provider wrapper
	rc   core.RunConfig
}

// newRemote publishes a program's locally built tables and prepares it
// remotely. The returned set-up time covers Publish, the client's
// negotiation and PrepareRemote with its module fetch and prefetcher.
func newRemote(a *authority, p *program, local *core.Prepared, ref, tenant string, o remoteOpts) (*remoteTarget, float64, error) {
	t0 := time.Now()
	a.publish(tenant, local)
	publishMS := since(t0)
	client, err := sigserve.NewClient(clientConfig(a.addr, tenant, o.set))
	if err != nil {
		return nil, 0, err
	}
	var tp core.TableProvider = client
	if o.wrap != nil {
		tp = o.wrap(client)
	}
	prep, err := core.PrepareRemote(p.load, o.rc, tp)
	setupMS := since(t0)
	if err != nil {
		client.Close()
		return nil, 0, err
	}
	return &remoteTarget{
		prep: prep, client: client, ref: ref, sources: tableSources(local), tenant: tenant,
		publishMS: publishMS,
	}, setupMS, nil
}

func (t *remoteTarget) run() (float64, *core.Result, error) {
	em := t.buf.emitter(evidence.Config{Tenant: t.tenant, Binding: "revperf remote-lookup " + t.tenant})
	t.n++
	t0 := time.Now()
	res, err := t.prep.RunInstance(core.InstanceOptions{Evidence: em, Out: &t.out})
	if err != nil {
		return since(t0), nil, err
	}
	t.lastStats = em.Stats()
	tu := time.Now()
	t.ack, err = t.client.UploadEvidence(fmt.Sprintf("run-%d", t.n), t.buf.Bytes())
	t.uploads = append(t.uploads, since(tu))
	if err != nil {
		err = fmt.Errorf("evidence upload: %w", err)
	}
	return since(t0), res, err
}

func (t *remoteTarget) check(res *core.Result) error {
	if err := checkResult(t.ref, res); err != nil {
		return err
	}
	if t.ack.Bytes != uint64(t.buf.Len()) {
		return fmt.Errorf("upload acknowledged %d bytes, sent %d", t.ack.Bytes, t.buf.Len())
	}
	if err := sameStream(&t.first, t.buf.Bytes()); err != nil {
		return err
	}
	return checkStream(t.buf.Bytes(), t.sources, res)
}

func (t *remoteTarget) close() {
	t.prep.Close()
	t.client.Close()
}

// remoteSetup returns the remote-lookup set-up over authority a: the
// authority builds the program's tables locally (the serial local
// reference runs on them), then the timed set-up runs.
func remoteSetup(a *authority, o remoteOpts) setupFn {
	return func(p *program) (target, float64, error) {
		local, err := core.Prepare(p.load, runConfig())
		if err != nil {
			return nil, 0, err
		}
		refRes, err := reference(local)
		if err != nil {
			return nil, 0, err
		}
		ref := identitySig(refRes)
		return newRemote(a, p, local, ref, fmt.Sprintf("seed-%d", p.seed), o)
	}
}

func runRemoteLookup(r *run) error {
	a, err := startAuthority(nil)
	if err != nil {
		return err
	}
	return runSimWorkload(r, remoteSetup(a, remoteOpts{rc: remoteRunConfig()}), a.stop)
}
