package main

import (
	"fmt"
	"time"

	"rev/internal/cfg"
	"rev/internal/chash"
	"rev/internal/core"
	"rev/internal/cpu"
	"rev/internal/crypt"
	"rev/internal/evidence"
	"rev/internal/isa"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// ladderRounds is how many interleaved rounds the layer ladder runs;
// each rung's figure is its median.
const ladderRounds = 7

// setupSpans times the public calls core.Prepare makes, in its order,
// for one program: two module loads, the profiling run, static
// analysis, then per module the CFG build, the table build (encode and
// encrypt) and the snapshot. It returns the span totals in ms and the
// built CFGs.
func setupSpans(p *program, rc core.RunConfig) (map[string]float64, []*cfg.Graph, error) {
	sp := map[string]float64{}
	span := func(name string, t0 time.Time) { sp[name] += since(t0) }
	t0 := time.Now()
	analysis, err := p.load()
	if err != nil {
		return nil, nil, err
	}
	twin, err := p.load()
	if err != nil {
		return nil, nil, err
	}
	span("prog.load_ms", t0)
	t0 = time.Now()
	profiler, err := cfg.ProfileRun(twin, rc.MaxInstrs)
	if err != nil {
		return nil, nil, err
	}
	span("cfg.profile_ms", t0)
	t0 = time.Now()
	static := cfg.Analyze(analysis, cfg.DefaultAnalyzeOptions())
	span("cfg.analyze_ms", t0)
	ks := crypt.NewKeyStore(crypt.DeriveKey(rc.KeySeed, "cpu-private"))
	var graphs []*cfg.Graph
	for i, mod := range analysis.Modules {
		t0 = time.Now()
		bld := cfg.NewBuilder(mod, rc.REV.Limits)
		profiler.Apply(bld)
		static.Apply(bld)
		g, err := bld.Build()
		if err != nil {
			return nil, nil, err
		}
		span("cfg.build_ms", t0)
		graphs = append(graphs, g)
		key := crypt.DeriveKey(rc.KeySeed, fmt.Sprintf("module-%d-%s", i, mod.Name))
		t0 = time.Now()
		tbl, img, err := sigtable.Build(g, rc.REV.Format, key, ks)
		if err != nil {
			return nil, nil, err
		}
		span("sigtable.build_ms", t0)
		t0 = time.Now()
		if _, err := sigtable.SnapshotFromImage(tbl, img, ks); err != nil {
			return nil, nil, err
		}
		span("sigtable.snapshot_ms", t0)
	}
	return sp, graphs, nil
}

// spanNames are the local set-up spans, in core.Prepare's order.
var spanNames = []string{
	"prog.load_ms", "cfg.profile_ms", "cfg.analyze_ms",
	"cfg.build_ms", "sigtable.build_ms", "sigtable.snapshot_ms",
}

// setupTrace collects spans and plain set-up times over a pool.
type setupTrace struct {
	spans   map[string]sample
	setupMS sample
	graphs  []*cfg.Graph
}

func (st *setupTrace) add(sp map[string]float64, setupMS float64, graphs []*cfg.Graph) {
	if st.spans == nil {
		st.spans = map[string]sample{}
	}
	for _, n := range spanNames {
		st.spans[n] = append(st.spans[n], sp[n])
	}
	st.setupMS = append(st.setupMS, setupMS)
	st.graphs = append(st.graphs, graphs...)
}

// report sets the span medians and the gap between their sum and the
// median plain set-up time.
func (st *setupTrace) report(r *run) {
	var sum float64
	for _, n := range spanNames {
		m := st.spans[n].median()
		r.set(n, m, "ms")
		sum += m
	}
	r.set("trace.setup_gap_pct", gapPct(sum, st.setupMS.median()), "%")
}

// gapPct is how far a traced figure sits from its untraced counterpart,
// in percent of the untraced one.
func gapPct(traced, untraced float64) float64 {
	return (traced - untraced) / untraced * 100
}

// rung is one step of the layer ladder: the same prepared program with
// one more layer than the rung before. run executes and checks one
// instance and returns the instance's host time (checks excluded).
type rung struct {
	name string
	run  func() (float64, error)
}

// targetRung is a rung running one checked instance of a target.
func targetRung(name string, t target) rung {
	return rung{name, func() (float64, error) {
		ms, _, _, err := checked(t)
		return ms, err
	}}
}

// runLadder runs every rung in each of ladderRounds rounds, starting
// each round one rung later so no rung always runs first. A rung runs
// twice in a row and only the second run is timed, so it is measured
// with the host caches it would have in a steady loop rather than the
// previous rung's. It returns each rung's median host ms; every rung run
// is one checked operation.
func runLadder(r *run, rungs []rung) []float64 {
	times := make([]sample, len(rungs))
	for round := 0; round < ladderRounds; round++ {
		for k := range rungs {
			i := (k + round) % len(rungs)
			_, err := rungs[i].run()
			r.record(err)
			ms, err := rungs[i].run()
			r.record(err)
			if err == nil {
				times[i] = append(times[i], ms)
			}
		}
	}
	meds := make([]float64, len(rungs))
	for i := range times {
		meds[i] = times[i].median()
	}
	return meds
}

// marginals turns rung medians into each rung's marginal cost: the
// first rung's own time, then each rung minus the one below it. They
// sum to the top rung by construction.
func marginals(meds []float64) []float64 {
	out := make([]float64, len(meds))
	for i, m := range meds {
		out[i] = m
		if i > 0 {
			out[i] = m - meds[i-1]
		}
	}
	return out
}

// reportLadder sets each named rung's marginal and the gap between the
// top rung (the workload's full configuration) and the untraced median
// instance time of the same program measured in the same run. Rungs named "" are stepping
// stones whose marginal no metric reports.
func reportLadder(r *run, names []string, meds []float64, untracedP50 float64) {
	for i, m := range marginals(meds) {
		if names[i] != "" {
			r.set(names[i], m, "ms")
		}
	}
	r.set("trace.ladder_gap_pct", gapPct(meds[len(meds)-1], untracedP50), "%")
}

// baseRungs are the two bottom rungs every simulation ladder shares:
// the functional ISA alone, then the unprotected out-of-order core.
// Both run on a clone of the loaded image and must reproduce the
// protected reference's program output.
func baseRungs(p *program, refOut []uint64) []rung {
	base := runConfig()
	base.REV = nil
	return []rung{
		{"functional", func() (float64, error) {
			t0 := time.Now()
			m := cpu.NewMachine(p.proto.Clone())
			_, err := m.Run(instrBudget)
			ms := since(t0)
			if err != nil {
				return ms, err
			}
			return ms, sameOutput("functional", m.Output, refOut)
		}},
		{"unprotected", func() (float64, error) {
			t0 := time.Now()
			res, err := core.Run(p.clone, base)
			ms := since(t0)
			if err != nil {
				return ms, err
			}
			return ms, sameOutput("unprotected", res.Output, refOut)
		}},
	}
}

func sameOutput(what string, got, want []uint64) error {
	if !u64Equal(got, want) {
		return fmt.Errorf("%s run output differs from the protected reference", what)
	}
	return nil
}

// pairPhase alternates untraced and traced instances of every program
// for half the measured time. It returns the untraced instance times of
// the first program (the ladder's) and of the whole pool, and the traced
// instance times of the pool.
func pairPhase(r *run, plain, traced []target) (first, untraced, tracedLat sample) {
	deadline := time.Now().Add(time.Duration(r.seconds / 2 * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < 2*len(plain); i++ {
		k := i % len(plain)
		ms, _, _, err := checked(plain[k])
		r.record(err)
		if err == nil {
			untraced = append(untraced, ms)
			if k == 0 {
				first = append(first, ms)
			}
		}
		ms, _, _, err = checked(traced[k])
		r.record(err)
		if err == nil {
			tracedLat = append(tracedLat, ms)
		}
	}
	return first, untraced, tracedLat
}

// reportOverhead sets trace.overhead_pct from the paired phase.
func reportOverhead(r *run, untraced, traced sample) {
	r.set("trace.overhead_pct", gapPct(traced.median(), untraced.median()), "%")
}

// warm runs and checks one instance of each target.
func warm(r *run, ts ...target) {
	for _, t := range ts {
		_, _, _, err := checked(t)
		r.record(err)
	}
}

// resultCounts sets the simulated figures from one instance result per
// pool program: per-instance means of counts, pooled ratios.
func resultCounts(r *run, res []*core.Result) {
	var blocks, stall, probes, partial, complete, hits, misses uint64
	var l1dA, l1dM, l1iA, l1iM, l2A, l2M, br, mis, instrs, cycles uint64
	for _, x := range res {
		blocks += x.Engine.ValidatedBlocks
		stall += x.Pipe.ValidationStallCycles
		probes += x.SC.Probes
		partial += x.SC.PartialMisses
		complete += x.SC.CompleteMisses
		hits += x.Engine.MemoHits
		misses += x.Engine.MemoMisses
		l1dA, l1dM = l1dA+x.L1D.TotalAccesses(), l1dM+x.L1D.TotalMisses()
		l1iA, l1iM = l1iA+x.L1I.TotalAccesses(), l1iM+x.L1I.TotalMisses()
		l2A, l2M = l2A+x.L2.TotalAccesses(), l2M+x.L2.TotalMisses()
		br, mis = br+x.Pipe.CommittedBranches, mis+x.Pipe.Mispredicts
		instrs, cycles = instrs+x.Pipe.Instrs, cycles+x.Pipe.Cycles
	}
	n := float64(len(res))
	r.set("core.validated_blocks", float64(blocks)/n, "count")
	r.set("core.validation_stall_cycles", float64(stall)/n, "cycles")
	r.set("sigcache.probes", float64(probes)/n, "count")
	r.set("sigcache.partial_misses", float64(partial)/n, "count")
	r.set("sigcache.complete_misses", float64(complete)/n, "count")
	r.set("sigcache.miss_rate", ratio(partial+complete, probes), "ratio")
	r.set("chash.memo_hits", float64(hits)/n, "count")
	r.set("chash.memo_misses", float64(misses)/n, "count")
	r.set("chash.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("mem.l1d_miss_rate", ratio(l1dM, l1dA), "ratio")
	r.set("mem.l1i_miss_rate", ratio(l1iM, l1iA), "ratio")
	r.set("mem.l2_miss_rate", ratio(l2M, l2A), "ratio")
	r.set("branch.mispredict_rate", ratio(mis, br), "ratio")
	r.set("cpu.ipc", ratio(instrs, cycles), "ratio")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simOverhead sets core.sim_overhead_pct: the pool's protected cycles
// against the unprotected core's on the same programs and budget (the
// paper's Fig. 6 metric; deterministic for a seed).
func simOverhead(r *run, pool []*program, res []*core.Result) error {
	base := runConfig()
	base.REV = nil
	var prot, unprot uint64
	for i, p := range pool {
		b, err := core.Run(p.clone, base)
		if err != nil {
			return err
		}
		unprot += b.Pipe.Cycles
		prot += res[i].Pipe.Cycles
	}
	r.set("core.sim_overhead_pct", (float64(prot)/float64(unprot)-1)*100, "%")
	return nil
}

// allocsPerRun sets core.allocs_per_run: heap allocations per instance
// of the workload's own configuration, read with ReadMemStats at the
// process's GOMAXPROCS over a few warm instances (checks excluded).
func allocsPerRun(r *run, t target) error {
	const n = 4
	m0 := mallocs()
	for i := 0; i < n; i++ {
		if _, _, err := t.run(); err != nil {
			return err
		}
	}
	r.set("core.allocs_per_run", float64(mallocs()-m0)/n, "count")
	return nil
}

// blockNS sets chash.block_ns: chash.BBSignatureInto timed over the
// programs' own block bytes, per block.
func blockNS(r *run, graphs []*cfg.Graph) {
	var blocks int
	var sig chash.Sig
	t0 := time.Now()
	for pass := 0; pass < 3; pass++ {
		for _, g := range graphs {
			m := g.Module
			for _, b := range g.ByStart {
				chash.BBSignatureInto(&sig, m.Code[b.Start-m.Base:b.End-m.Base+isa.WordSize], b.Start, b.End)
				blocks++
			}
		}
	}
	r.set("chash.block_ns", float64(time.Since(t0).Nanoseconds())/float64(blocks), "ns")
}

// evidenceCounts sets the evidence emitter's figures from the last
// instance of each traced target.
func evidenceCounts(r *run, stats []evidence.Stats) {
	var enc float64
	var stalls, bytes, blocks uint64
	for _, s := range stats {
		enc += s.EncodeSeconds * 1000
		stalls += s.RingStalls
		bytes += s.Bytes
		blocks += s.Blocks
	}
	n := float64(len(stats))
	r.set("evidence.encode_ms", enc/n, "ms")
	r.set("evidence.ring_stalls", float64(stalls)/n, "count")
	r.set("evidence.bytes_per_block", ratio(bytes, blocks), "B/block")
}

// The layers a local workload bypasses.
var (
	remoteLayers = []string{
		"sigserve.fetch_ms", "sigserve.publish_ms", "prefetch.setup_ms", "sigserve.remote_ms",
		"prefetch.issued", "prefetch.hits", "prefetch.late", "prefetch.misses",
		"prefetch.wasted", "prefetch.accuracy", "prefetch.useful_ratio",
		"sigserve.lookups", "sigserve.lookup_us_p50", "sigserve.lookup_us_tail",
		"sigserve.upload_ms", "sigserve.queue_wait_us_p50", "sigserve.batch_size_mean",
		"sigserve.coalesced", "sigserve.retries", "sigserve.failures",
	}
	planeLayers = []string{
		"sigserve.server.handle_us_p50.lookup", "sigserve.server.handle_us_p50.lookup_batch",
		"sigserve.server.handle_us_p50.evidence_put", "sigserve.server.queue_us",
		"sigserve.delta_hits", "sigserve.delta_fulls", "plane.max_rate_ops_s", "plane.put_ms_p50",
		"plane.lookup_ms_tail",
		"plane.gen_late_us_tail",
	}
	evidenceLayers = []string{"evidence.ms", "evidence.encode_ms", "evidence.ring_stalls", "evidence.bytes_per_block"}
)

// localTwin prepares a traced twin of a locally prepared program: the
// same tables, each served through a localTimer as its SharedTable.Src.
func localTwin(p *program, prep *core.Prepared) (*core.Prepared, *localProvider, error) {
	lp := newLocalProvider(prep)
	twin, err := core.PrepareRemote(p.load, runConfig(), lp)
	return twin, lp, err
}

// sigtableCounts sets the sigtable layer's lookup count per instance
// and its mean lookup time.
func sigtableCounts(r *run, lps []*localProvider, instances int) {
	var n, ns int64
	for _, lp := range lps {
		a, b := lp.lookups()
		n, ns = n+a, ns+b
	}
	r.set("sigtable.lookups", float64(n)/float64(instances), "count")
	r.set("sigtable.lookup_ns", float64(ns)/float64(n), "ns")
}

// ---- hot-local and cold-attested -------------------------------------

// localTraceSpec is what differs between the two local workloads'
// traced runs.
type localTraceSpec struct {
	// newTarget wraps a prepared program (plain or traced twin) in the
	// workload's target.
	newTarget func(p *program, prep *core.Prepared, ref string, sources map[string]sigtable.Source) target
	// rungs are the ladder rungs above the unprotected core, with the
	// metric each one's marginal is reported as.
	rungs func(p *program, prep *core.Prepared, ref string, sources map[string]sigtable.Source) ([]rung, []string)
}

// traceLocal is the traced run of a workload over local tables.
func traceLocal(r *run, spec localTraceSpec) error {
	pool, err := genPool(r)
	if err != nil {
		return err
	}
	var st setupTrace
	var plain, traced []target
	var lps []*localProvider
	var preps []*core.Prepared
	defer func() {
		closeAll(plain)
		closeAll(traced)
	}()
	var refOut []uint64
	var refSig string
	var ref0Sources map[string]sigtable.Source
	for i, p := range pool {
		t0 := time.Now()
		prep, err := core.Prepare(p.load, runConfig())
		setupMS := since(t0)
		if err != nil {
			return err
		}
		sp, graphs, err := setupSpans(p, runConfig())
		if err != nil {
			prep.Close()
			return err
		}
		st.add(sp, setupMS, graphs)
		refRes, err := reference(prep)
		if err != nil {
			prep.Close()
			return err
		}
		ref, sources := identitySig(refRes), tableSources(prep)
		if i == 0 {
			refOut, refSig, ref0Sources = append([]uint64(nil), refRes.Output...), ref, sources
		}
		twin, lp, err := localTwin(p, prep)
		if err != nil {
			prep.Close()
			return err
		}
		plain = append(plain, spec.newTarget(p, prep, ref, sources))
		traced = append(traced, spec.newTarget(p, twin, ref, sources))
		lps, preps = append(lps, lp), append(preps, prep)
		warm(r, plain[i], traced[i])
	}
	st.report(r)
	blockNS(r, st.graphs)

	extra, names := spec.rungs(pool[0], preps[0], refSig, ref0Sources)
	meds := runLadder(r, append(baseRungs(pool[0], refOut), extra...))
	first, untraced, tracedLat := pairPhase(r, plain, traced)
	reportLadder(r, append([]string{"cpu.functional_ms", "cpu.timing_ms"}, names...), meds, first.median())
	reportOverhead(r, untraced, tracedLat)

	var results []*core.Result
	var evs []evidence.Stats
	for _, t := range traced {
		_, res, _, err := checked(t)
		r.record(err)
		if err != nil {
			return err
		}
		results = append(results, res)
		if at, ok := t.(*attestedTarget); ok {
			evs = append(evs, at.lastStats)
		}
	}
	resultCounts(r, results)
	// One lookup-count sample per traced instance run: the warm-up, the
	// paired phase and the final one.
	sigtableCounts(r, lps, len(tracedLat)+2*len(traced))
	if len(evs) > 0 {
		evidenceCounts(r, evs)
	}
	if err := simOverhead(r, pool, results); err != nil {
		return err
	}
	return allocsPerRun(r, plain[0])
}

func traceHotLocal(r *run) error {
	r.bypass("local serial workload: no pipeline, evidence or telemetry",
		append([]string{"core.pipeline_ms", "telemetry.ms"}, evidenceLayers...)...)
	r.bypass("local tables: no signature service", remoteLayers...)
	r.bypass("no attestation plane", planeLayers...)
	return traceLocal(r, localTraceSpec{
		newTarget: func(p *program, prep *core.Prepared, ref string, _ map[string]sigtable.Source) target {
			return &localTarget{prep: prep, ref: ref}
		},
		rungs: func(p *program, prep *core.Prepared, ref string, _ map[string]sigtable.Source) ([]rung, []string) {
			return []rung{targetRung("protected", &localTarget{prep: prep, ref: ref})},
				[]string{"core.rev_ms"}
		},
	})
}

func traceColdAttested(r *run) error {
	r.bypass("local tables: no signature service", remoteLayers...)
	r.bypass("no attestation plane", planeLayers...)
	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	newTarget := func(p *program, prep *core.Prepared, ref string, sources map[string]sigtable.Source) *attestedTarget {
		return &attestedTarget{
			prep: prep, ref: ref, sources: sources, set: set,
			binding: attestedBinding(p),
		}
	}
	return traceLocal(r, localTraceSpec{
		newTarget: func(p *program, prep *core.Prepared, ref string, sources map[string]sigtable.Source) target {
			return newTarget(p, prep, ref, sources)
		},
		rungs: func(p *program, prep *core.Prepared, ref string, sources map[string]sigtable.Source) ([]rung, []string) {
			var out core.Result
			var buf streamBuf
			inst := func(o core.InstanceOptions) (float64, error) {
				o.Out = &out
				t0 := time.Now()
				res, err := prep.RunInstance(o)
				ms := since(t0)
				if err != nil {
					return ms, err
				}
				if err := checkResult(ref, res); err != nil || o.Evidence == nil {
					return ms, err
				}
				return ms, checkStream(buf.Bytes(), sources, res)
			}
			return []rung{
					{"protected", func() (float64, error) { return inst(core.InstanceOptions{}) }},
					{"pipelined", func() (float64, error) { return inst(core.InstanceOptions{Lanes: -1}) }},
					{"evidence", func() (float64, error) {
						em := buf.emitter(evidence.Config{Binding: attestedBinding(p)})
						return inst(core.InstanceOptions{Lanes: -1, Evidence: em})
					}},
					targetRung("telemetry", newTarget(p, prep, ref, sources)),
				}, []string{
					"core.rev_ms", "core.pipeline_ms", "evidence.ms", "telemetry.ms",
				}
		},
	})
}
