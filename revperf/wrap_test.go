package main

import (
	"testing"

	"rev/internal/core"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

// smallProgram generates a reduced-scale program for tests.
func smallProgram(t *testing.T, name string) (*program, *core.Prepared, string) {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof = prof.Scaled(0.05)
	mod, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p := &program{seed: prof.Seed, mod: mod}
	if p.proto, err = p.load(); err != nil {
		t.Fatal(err)
	}
	local, err := core.Prepare(p.load, runConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	ref, err := reference(local)
	if err != nil {
		t.Fatal(err)
	}
	return p, local, identitySig(ref)
}

// TestWireSourceKeepsPrefetchOn: the traced run's wrapper sits between
// the sigserve client and the prefetcher; the prefetcher must still
// attach and issue, the blocking waits must be timed, and the instance
// must still match the local reference.
func TestWireSourceKeepsPrefetchOn(t *testing.T) {
	p, local, ref := smallProgram(t, "gobmk")
	a, err := startAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.stop()
	wp := &wrapProvider{}
	rt, _, err := newRemote(a, p, local, ref, "traced", remoteOpts{
		rc: remoteRunConfig(), set: &telemetry.Set{Reg: telemetry.NewRegistry()},
		wrap: func(tp core.TableProvider) core.TableProvider { wp.inner = tp; return wp },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.close()
	if _, _, _, err := checked(rt); err != nil {
		t.Fatal(err)
	}
	st, ok := rt.prep.PrefetchStats()
	if !ok || st.Issued == 0 {
		t.Fatalf("prefetcher attached %v, issued %d: the wrapper switched prefetching off", ok, st.Issued)
	}
	if len(wp.srcs) == 0 || wp.fetchMS <= 0 {
		t.Fatalf("wrapper saw %d sources and %vms of fetch", len(wp.srcs), wp.fetchMS)
	}
	if len(wp.waits()) == 0 {
		t.Fatal("no blocking lookup was timed")
	}
}

// TestLocalTimerTwinIsIdentical: a traced twin whose tables sit behind
// localTimer reproduces the reference and counts its lookups.
func TestLocalTimerTwinIsIdentical(t *testing.T) {
	p, local, ref := smallProgram(t, "bzip2")
	twin, lp, err := localTwin(p, local)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	lt := &localTarget{prep: twin, ref: ref}
	if _, _, _, err := checked(lt); err != nil {
		t.Fatal(err)
	}
	if n, ns := lp.lookups(); n == 0 || ns <= 0 {
		t.Fatalf("timer counted %d lookups in %dns", n, ns)
	}
}
