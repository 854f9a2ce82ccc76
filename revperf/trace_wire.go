package main

import (
	"errors"
	"fmt"
	"time"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/telemetry"
)

// ---- remote-lookup ---------------------------------------------------

// traceRemoteLookup is remote-lookup's traced run. Per program it
// prepares the untraced target, a traced twin (its sources behind
// wireSource, its client instrumented) and, for prefetch.setup_ms, the
// same remote set-up without prefetching.
func traceRemoteLookup(r *run) error {
	r.bypass("tables are served remotely; the server's lookups are sigserve.*", "sigtable.lookups", "sigtable.lookup_ns")
	r.bypass("serial instances without telemetry", "core.pipeline_ms", "telemetry.ms")
	r.bypass("one tenant per program, not the many-tenant plane", planeLayers...)
	pool, err := genPool(r)
	if err != nil {
		return err
	}
	a, err := startAuthority(nil)
	if err != nil {
		return err
	}
	defer a.stop()
	var st setupTrace
	var plain, traced []target
	var wps []*wrapProvider
	var regs []*telemetry.Registry
	var noPF, fetch, publish sample
	defer func() {
		closeAll(plain)
		closeAll(traced)
	}()
	var local0 *core.Prepared
	var refOut []uint64
	var ref0 string
	for i, p := range pool {
		local, err := core.Prepare(p.load, runConfig())
		if err != nil {
			return err
		}
		defer local.Close()
		sp, graphs, err := setupSpans(p, runConfig())
		if err != nil {
			return err
		}
		refRes, err := reference(local)
		if err != nil {
			return err
		}
		ref := identitySig(refRes)
		if i == 0 {
			local0, refOut, ref0 = local, append([]uint64(nil), refRes.Output...), ref
		}
		tenant := fmt.Sprintf("seed-%d", p.seed)
		pt, setupMS, err := newRemote(a, p, local, ref, tenant, remoteOpts{rc: remoteRunConfig()})
		if err != nil {
			return err
		}
		plain = append(plain, pt)
		publish = append(publish, pt.publishMS)
		st.add(sp, setupMS, graphs)

		np, npMS, err := newRemote(a, p, local, ref, tenant+"-noprefetch", remoteOpts{rc: runConfig()})
		if err != nil {
			return err
		}
		np.close()
		noPF = append(noPF, npMS)

		wp := &wrapProvider{}
		reg := telemetry.NewRegistry()
		tt, _, err := newRemote(a, p, local, ref, tenant+"-traced", remoteOpts{
			rc: remoteRunConfig(), set: &telemetry.Set{Reg: reg},
			wrap: func(tp core.TableProvider) core.TableProvider { wp.inner = tp; return wp },
		})
		if err != nil {
			return err
		}
		traced = append(traced, tt)
		wps, regs = append(wps, wp), append(regs, reg)
		fetch = append(fetch, wp.fetchMS)
		warm(r, pt, tt)
	}
	// The local spans are the authority's table build, which the remote
	// set-up does not include: the remote set-up is the publish, the
	// module load, the fetch and the prefetcher (negotiation the gap).
	for _, n := range spanNames {
		r.set(n, st.spans[n].median(), "ms")
	}
	loadMS := st.spans["prog.load_ms"].median() / 2 // core.Prepare loads twice, PrepareRemote once
	pfMS := st.setupMS.median() - noPF.median()
	r.set("sigserve.fetch_ms", fetch.median(), "ms")
	r.set("sigserve.publish_ms", publish.median(), "ms")
	r.set("prefetch.setup_ms", pfMS, "ms")
	r.set("trace.setup_gap_pct", gapPct(publish.median()+loadMS+fetch.median()+pfMS, st.setupMS.median()), "%")
	blockNS(r, st.graphs)

	// Ladder: ..., protected local serial, + remote lookups, + evidence,
	// + upload (the workload's full configuration).
	rt := plain[0].(*remoteTarget)
	var out core.Result
	var buf streamBuf
	remoteInst := func(em *evidence.Emitter) (float64, error) {
		t0 := time.Now()
		res, err := rt.prep.RunInstance(core.InstanceOptions{Evidence: em, Out: &out})
		ms := since(t0)
		if err != nil {
			return ms, err
		}
		if err := checkResult(ref0, res); err != nil || em == nil {
			return ms, err
		}
		return ms, checkStream(buf.Bytes(), rt.sources, res)
	}
	rungs := append(baseRungs(pool[0], refOut),
		targetRung("protected", &localTarget{prep: local0, ref: ref0}),
		rung{"remote", func() (float64, error) { return remoteInst(nil) }},
		rung{"evidence", func() (float64, error) {
			return remoteInst(buf.emitter(evidence.Config{Tenant: rt.tenant, Binding: "revperf ladder"}))
		}},
		targetRung("upload", rt),
	)
	meds := runLadder(r, rungs)
	first, untraced, tracedLat := pairPhase(r, plain, traced)
	reportLadder(r, []string{"cpu.functional_ms", "cpu.timing_ms", "core.rev_ms", "sigserve.remote_ms", "evidence.ms", ""},
		meds, first.median())
	reportOverhead(r, untraced, tracedLat)

	var results []*core.Result
	var evs []evidence.Stats
	var waits, uploads sample
	var pf struct{ issued, hits, late, misses, wasted uint64 }
	instances := 0
	for i, t := range traced {
		_, res, _, err := checked(t)
		r.record(err)
		if err != nil {
			return err
		}
		tt := t.(*remoteTarget)
		results = append(results, res)
		evs = append(evs, tt.lastStats)
		uploads = append(uploads, tt.uploads...)
		waits = append(waits, wps[i].waits()...)
		instances += tt.n
		s, ok := tt.prep.PrefetchStats()
		if !ok {
			return fmt.Errorf("traced remote instance of seed %d carries no prefetcher", pool[i].seed)
		}
		pf.issued += s.Issued
		pf.hits += s.Hits
		pf.late += s.Late
		pf.misses += s.Misses
		pf.wasted += s.Wasted
	}
	resultCounts(r, results)
	evidenceCounts(r, evs)
	n := float64(instances)
	r.set("prefetch.issued", float64(pf.issued)/n, "count")
	r.set("prefetch.hits", float64(pf.hits)/n, "count")
	r.set("prefetch.late", float64(pf.late)/n, "count")
	r.set("prefetch.misses", float64(pf.misses)/n, "count")
	r.set("prefetch.wasted", float64(pf.wasted)/n, "count")
	r.set("prefetch.accuracy", ratio(pf.hits, pf.hits+pf.late+pf.misses), "ratio")
	r.set("prefetch.useful_ratio", ratio(pf.hits, pf.issued), "ratio")
	r.set("sigserve.lookups", float64(len(waits))/n, "count")
	setTail(r, "sigserve.lookup_us", waits, "us")
	r.set("sigserve.upload_ms", uploads.median(), "ms")
	clientCounts(r, regs, n)
	if err := simOverhead(r, pool, results); err != nil {
		return err
	}
	return allocsPerRun(r, plain[0])
}

// setTail sets name_p50 and name_tail from a sample (0 when empty).
func setTail(r *run, name string, s sample, unit string) {
	p50, tail := 0.0, 0.0
	if len(s) > 0 {
		p50 = s.median()
		tail = p50
		if t, _, ok := s.tail(); ok {
			tail = t
		}
	}
	r.set(name+"_p50", p50, unit)
	r.set(name+"_tail", tail, unit)
}

// clientCounts sets the sigserve client figures from the client
// registries, per instance (or per request on the plane).
func clientCounts(r *run, regs []*telemetry.Registry, per float64) {
	var coalesced, retries, failures uint64
	var wait, size telemetry.HistSnapshot
	for _, reg := range regs {
		s := reg.Snapshot()
		coalesced += s.Counters["sigserve_client_coalesced_total"]
		retries += s.Counters["sigserve_client_retries_total"]
		failures += s.Counters["sigserve_client_failures_total"]
		mergeHist(&wait, s.Histograms["sigserve_client_queue_wait_ns"])
		mergeHist(&size, s.Histograms["sigserve_client_batch_size"])
	}
	r.set("sigserve.coalesced", float64(coalesced)/per, "count")
	r.set("sigserve.retries", float64(retries), "count")
	r.set("sigserve.failures", float64(failures), "count")
	r.set("sigserve.queue_wait_us_p50", wait.Quantile(0.5)/1e3, "us")
	r.set("sigserve.batch_size_mean", size.Mean(), "count")
}

// mergeHist adds b's buckets into a.
func mergeHist(a *telemetry.HistSnapshot, b telemetry.HistSnapshot) {
	if a.Buckets == nil {
		a.Buckets = map[uint64]uint64{}
	}
	a.Count += b.Count
	a.Sum += b.Sum
	for k, v := range b.Buckets {
		a.Buckets[k] += v
	}
}

// ---- plane-mixed -----------------------------------------------------

// tracePlaneMixed is plane-mixed's traced run: the open-loop max-rate
// bisection, then the nominal rate offered by untraced and instrumented
// tenants in alternating quarters with the tables re-published at the
// middle, reading the shards' and clients' registries.
func tracePlaneMixed(r *run) error {
	r.bypass("the plane serves tables built before its set-up",
		"prog.load_ms", "cfg.profile_ms", "cfg.analyze_ms", "cfg.build_ms",
		"sigtable.build_ms", "sigtable.snapshot_ms", "prefetch.setup_ms", "chash.block_ns")
	r.bypass("no simulation in the plane workload",
		"cpu.functional_ms", "cpu.timing_ms", "core.rev_ms", "core.pipeline_ms", "evidence.ms",
		"telemetry.ms", "sigserve.remote_ms", "trace.ladder_gap_pct", "core.sim_overhead_pct",
		"core.validated_blocks", "core.validation_stall_cycles", "core.allocs_per_run",
		"sigcache.probes", "sigcache.partial_misses", "sigcache.complete_misses", "sigcache.miss_rate",
		"mem.l1d_miss_rate", "mem.l1i_miss_rate", "mem.l2_miss_rate", "branch.mispredict_rate",
		"cpu.ipc", "chash.memo_hits", "chash.memo_misses", "chash.memo_hit_ratio",
		"sigtable.lookups", "sigtable.lookup_ns", "evidence.encode_ms", "evidence.ring_stalls",
		"evidence.bytes_per_block", "prefetch.issued", "prefetch.hits", "prefetch.late",
		"prefetch.misses", "prefetch.wasted", "prefetch.accuracy", "prefetch.useful_ratio",
		"sigserve.upload_ms")
	pr, err := startPlaneRun(r, nil)
	if err != nil {
		return err
	}
	plain := pr.pl.tenant
	var tracedTenants []*tenantConn
	var regs []*telemetry.Registry
	defer func() {
		for _, t := range tracedTenants {
			t.c.Close()
		}
		pr.pl.tenant = plain
		pr.pl.stop()
	}()
	maxOps := pr.bisect(r)
	if maxOps == 0 {
		return errors.New("no offered rate met the latency limit")
	}
	r.set("plane.max_rate_ops_s", maxOps, "ops/s")

	// An instrumented client per tenant on the same ring; the nominal
	// rate is offered by the untraced and the instrumented tenants in
	// alternating quarters, with the table re-published at the middle.
	for _, t := range plain {
		reg := telemetry.NewRegistry()
		nt, err := openTenant(t.name, t.addrs, t.in, &telemetry.Set{Reg: reg})
		if err != nil {
			return err
		}
		tracedTenants, regs = append(tracedTenants, nt), append(regs, reg)
	}
	quarter := pr.phaseDur(r, 0.25)
	var untraced, traced phaseStats
	var before, after planeCounters
	for q := 0; q < 4; q++ {
		if q == 2 {
			before = pr.pl.counters()
			pr.pl.tenant = append(append([]*tenantConn(nil), plain...), tracedTenants...)
			if err := pr.pl.republish(r, pr.rng); err != nil {
				return err
			}
			after = pr.pl.counters()
		}
		if q%2 == 0 {
			pr.pl.tenant = plain
			s, _ := pr.nominal(r, quarter)
			untraced = untraced.merge(s)
		} else {
			pr.pl.tenant = tracedTenants
			s, _ := pr.nominal(r, quarter)
			traced = traced.merge(s)
		}
	}
	pr.pl.tenant = plain

	r.set("trace.overhead_pct", gapPct(traced.lookupMS.median(), untraced.lookupMS.median()), "%")
	r.set("sigserve.fetch_ms", pr.pl.fetchMS.median(), "ms")
	r.set("sigserve.publish_ms", pr.pl.publishMS, "ms")
	r.set("trace.setup_gap_pct", gapPct(pr.pl.fetchMS.sum()+pr.pl.publishMS, pr.setupMS[len(pr.setupMS)-1]), "%")
	var handle = map[string]*telemetry.HistSnapshot{}
	for _, typ := range []string{"lookup", "lookup_batch", "evidence_put"} {
		h := &telemetry.HistSnapshot{}
		for _, reg := range pr.pl.regs {
			mergeHist(h, reg.Snapshot().Histograms["sigserve_server_req."+typ+"_ns"])
		}
		handle[typ] = h
		r.set("sigserve.server.handle_us_p50."+typ, h.Quantile(0.5)/1e3, "us")
	}
	s := untraced.merge(traced)
	// Lookup mode coalesces single lookups into batch frames, so the
	// server's handle time for them is the lookup_batch type's.
	r.set("sigserve.server.queue_us", s.serviceUS.median()-handle["lookup_batch"].Quantile(0.5)/1e3, "us")
	r.set("sigserve.delta_hits", float64(after.deltaHits-before.deltaHits), "count")
	r.set("sigserve.delta_fulls", float64(after.deltaFulls-before.deltaFulls), "count")
	r.set("plane.put_ms_p50", s.putMS.median(), "ms")
	// The tail rule's own tail, which latency_ms_tail departs from (see
	// planeTailPct).
	ruleTail, _, _ := untraced.lookupMS.tail()
	r.set("plane.lookup_ms_tail", ruleTail, "ms")
	late, _, _ := s.lateUS.tail()
	r.set("plane.gen_late_us_tail", late, "us")
	r.set("sigserve.lookups", float64(len(traced.lookupMS)), "count")
	setTail(r, "sigserve.lookup_us", traced.serviceUS, "us")
	clientCounts(r, regs, float64(len(traced.lookupMS)))
	return nil
}
