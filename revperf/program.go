package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// program is one generated workload program. The stack receives only
// the generated module: every build loads it into a fresh address space.
type program struct {
	seed int64
	mod  *prog.Module
	// proto is a loaded image kept for ladder rungs that need a fresh
	// instance without paying the module load (cloned per run).
	proto *prog.Program
}

// profileSeed returns the named profile's own seed.
func profileSeed(name string) int64 {
	p, err := workload.ByName(name)
	if err != nil {
		return 0
	}
	return p.Seed
}

// poolSeeds derives n program seeds from seed. The first is seed itself,
// so the default seed measures the profile's own program first; the
// rest are splitmix64 draws, so distinct seeds give disjoint pools.
func poolSeeds(seed int64, n int) []int64 {
	out := []int64{seed}
	x := uint64(seed)
	for len(out) < n {
		x += 0x9e3779b97f4a7c15
		out = append(out, int64(mix64(x)>>1))
	}
	return out
}

// mix64 is splitmix64's finalizer: a bijective mix of a 64-bit word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genPool generates the run's programs from the workload profile.
func genPool(r *run) ([]*program, error) {
	prof, err := workload.ByName(r.def.profile)
	if err != nil {
		return nil, err
	}
	var pool []*program
	for _, s := range r.stamp.PoolSeeds {
		prof.Seed = s
		mod, err := prof.Generate()
		if err != nil {
			return nil, fmt.Errorf("generating %s seed %d: %w", prof.Name, s, err)
		}
		p := &program{seed: s, mod: mod}
		if p.proto, err = p.load(); err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// load builds a fresh program instance from the generated module.
func (p *program) load() (*prog.Program, error) {
	pr := prog.NewProgram()
	if err := pr.Load(p.mod); err != nil {
		return nil, fmt.Errorf("loading seed %d: %w", p.seed, err)
	}
	return pr, nil
}

// clone returns a fresh copy of the loaded image.
func (p *program) clone() (*prog.Program, error) { return p.proto.Clone(), nil }

// runConfig is the protected run configuration every workload shares.
func runConfig() core.RunConfig {
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrBudget
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg
	return rc
}

// identitySig renders every Result field the determinism contract
// covers. The memo hit/miss split is zeroed: pipelined lanes shard the
// signature memo, so that split (and nothing else) may differ from a
// serial run.
func identitySig(res *core.Result) string {
	eng := res.Engine
	eng.MemoHits, eng.MemoMisses = 0, 0
	return fmt.Sprintf("%v|%v|%v|%+v|%+v|%d|%+v|%+v|%+v|%+v|%+v|%+v|%+v|%+v",
		res.Output, res.Halted, res.Violation, res.Pipe, res.Branch,
		res.UniqueBranches, res.L1D, res.L1I, res.L2, res.DRAM,
		res.SC, eng, res.Shadow, res.SourceNotes)
}

// checkResult compares an instance result against the serial local
// reference signature of the same program.
func checkResult(ref string, res *core.Result) error {
	switch {
	case res == nil:
		return errors.New("no result")
	case res.SourceNotes != nil:
		return fmt.Errorf("source notes %v", res.SourceNotes)
	case res.Violation != nil:
		return fmt.Errorf("clean program flagged: %v", res.Violation)
	case identitySig(res) != ref:
		return errors.New("result differs from the serial local reference")
	}
	return nil
}

// reference runs one serial local instance of a locally prepared
// program: the result every instance of the program must reproduce.
func reference(prep *core.Prepared) (*core.Result, error) {
	res, err := prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if res.Violation != nil || res.SourceNotes != nil || res.Engine.ValidatedBlocks == 0 {
		return nil, fmt.Errorf("reference run is not a clean validated run (violation %v, notes %v)",
			res.Violation, res.SourceNotes)
	}
	return res, nil
}

// tableSources maps each prepared module to its local snapshot: the
// tables evidence streams are verified against.
func tableSources(prep *core.Prepared) map[string]sigtable.Source {
	m := make(map[string]sigtable.Source, len(prep.Tables))
	for _, st := range prep.Tables {
		m[st.Module] = st.Snap
	}
	return m
}

// checkStream replays an evidence stream against the prepared tables
// and checks it seals the instance's verdict and block count.
func checkStream(stream []byte, sources map[string]sigtable.Source, res *core.Result) error {
	rep, err := evidence.Verify(stream, evidence.VerifyConfig{Sources: sources})
	if err != nil {
		return fmt.Errorf("evidence stream rejected: %w", err)
	}
	if rep.Outcome.Verdict != evidence.VerdictPass {
		return fmt.Errorf("evidence verdict %v, want pass", rep.Outcome.Verdict)
	}
	if res != nil && rep.Blocks != res.Engine.ValidatedBlocks {
		return fmt.Errorf("evidence attests %d blocks, run validated %d", rep.Blocks, res.Engine.ValidatedBlocks)
	}
	return nil
}

// sameStream checks that an evidence stream equals the first one its
// program emitted (kept in *first on the first call): the stream depends
// only on the committed instruction stream, so every instance of one
// program must emit the same bytes.
func sameStream(first *[]byte, stream []byte) error {
	if *first == nil {
		*first = append([]byte(nil), stream...)
		return nil
	}
	if !bytes.Equal(*first, stream) {
		return errors.New("evidence stream differs from the program's first")
	}
	return nil
}

// streamBuf is a reusable evidence sink.
type streamBuf struct{ bytes.Buffer }

// emitter resets the sink and returns a fresh single-use emitter on it.
func (b *streamBuf) emitter(cfg evidence.Config) *evidence.Emitter {
	b.Reset()
	return evidence.NewEmitter(&b.Buffer, cfg)
}

// totalAlloc reads the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
