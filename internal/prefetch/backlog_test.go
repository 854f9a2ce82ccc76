package prefetch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"rev/internal/cfg"
	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// gobmkStaticGraph builds the gobmk CFG the way the prefetcher gets it
// from core.PrepareRemote: static analysis only, no profiling run.
func gobmkStaticGraph(t *testing.T) *cfg.Graph {
	t.Helper()
	prof, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p := prog.NewProgram()
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	bld := cfg.NewBuilder(m, cfg.DefaultLimits())
	cfg.Analyze(p, cfg.DefaultAnalyzeOptions()).Apply(bld)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// backlogDigest is the SHA-256 of the backlog's query keys, in order.
func backlogDigest(p *Prefetcher) string {
	h := sha256.New()
	for _, it := range p.backlog {
		fmt.Fprintf(h, "%+v\n", it.key)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenBacklogs are the gobmk backlog sizes and key digests as the
// prefetcher produced them when it hashed every static block serially
// through its own memo.
var goldenBacklogs = map[sigtable.Format]struct {
	n      int
	digest string
}{
	sigtable.Normal:     {169231, "183f25398666ab4994e69d5c6c2f5702a8baf9d268b6cfcf57ff4b2a96a839e6"},
	sigtable.Aggressive: {225803, "c0cd54b201d29aae372b726150b3c1cc8116fbb91ca01a4faad7386e0f11710b"},
	sigtable.CFIOnly:    {107240, "b98d8f89fce39a000e54ccc4c978864858eaf5c0b220cee13ec65a71127865d2"},
}

// TestBacklogKeysUnchanged checks that hashing the static blocks with
// sigtable.BlockSignatures leaves gobmk's backlog keys exactly as they
// were, at GOMAXPROCS 1 and 4, and that the walk reads every static
// block's signature back unchanged.
func TestBacklogKeysUnchanged(t *testing.T) {
	g := gobmkStaticGraph(t)
	for _, f := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/procs=%d", f, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				p, err := New(Config{Depth: 16}, f, []Module{{Name: "gobmk", Graph: g, Src: &fakeSource{}}}, nil)
				if err != nil {
					t.Fatal(err)
				}
				p.Close()
				want := goldenBacklogs[f]
				if n, d := len(p.backlog), backlogDigest(p); n != want.n || d != want.digest {
					t.Fatalf("backlog of %d keys, digest %s; want %d, %s", n, d, want.n, want.digest)
				}
				if f == sigtable.CFIOnly {
					return
				}
				ms := p.mods[0]
				for _, start := range g.Starts {
					b := g.ByStart[start]
					if got, want := ms.sigOf(b), refSig(g, b); got != want {
						t.Fatalf("sigOf(%#x) = %#x, reference %#x", start, got, want)
					}
				}
				if len(ms.synthSigs) != 0 {
					t.Fatalf("static blocks went through the synthesized-block memo (%d entries)", len(ms.synthSigs))
				}
			})
		}
	}
}
