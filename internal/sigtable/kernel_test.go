package sigtable

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"rev/internal/cfg"
	"rev/internal/chash"
	"rev/internal/isa"
	"rev/internal/prog"
	"rev/internal/workload"
)

// workloadGraph builds a benchmark profile's CFG the way core.Prepare
// does — profiled computed edges plus static analysis — with a short
// 200k-instruction profiling run.
func workloadGraph(t testing.TB, name string) *cfg.Graph {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	load := func() *prog.Program {
		p := prog.NewProgram()
		if err := p.Load(m); err != nil {
			t.Fatal(err)
		}
		return p
	}
	analysis := load()
	pr, err := cfg.ProfileRun(load(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	bld := cfg.NewBuilder(m, cfg.DefaultLimits())
	pr.Apply(bld)
	cfg.Analyze(analysis, cfg.DefaultAnalyzeOptions()).Apply(bld)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// serialSigs is the reference the kernel must reproduce: one
// chash.BBSignature per block, over a copy of the block's bytes.
func serialSigs(g *cfg.Graph) []chash.Sig {
	mod := g.Module
	out := make([]chash.Sig, len(g.Starts))
	for i, s := range g.Starts {
		b := g.ByStart[s]
		code := make([]byte, b.NumInstrs*isa.WordSize)
		copy(code, mod.Code[b.Start-mod.Base:b.End-mod.Base+isa.WordSize])
		out[i] = chash.BBSignature(code, b.Start, b.End)
	}
	return out
}

// goldenImages are the SHA-256 digests of the gobmk table images (graph
// from workloadGraph, testKey, testKS) as the serial builder, which
// copied each block and hashed it with chash.BBSignature, produced them.
var goldenImages = map[Format]string{
	Normal:     "a640adf1f365ccf04a74c06c49e6ffe7a744d0a6e572ee3a138d8dcef995cb8f",
	Aggressive: "37c50909a7a4e9985c6d4868ee9a3ec1330ec9e99472e54b219a13f821f29867",
	CFIOnly:    "0775e5c0fdbda470bd0320c3847c0048f43f757265eb8374115e5ade1ab63c48",
}

// TestBlockSignaturesMatchSerialReference checks the parallel kernel
// against per-block chash.BBSignature at GOMAXPROCS 1 and 4, on a graph
// large enough to be shared out and on one hashed inline.
func TestBlockSignaturesMatchSerialReference(t *testing.T) {
	small := protectedGraph(t)
	for _, g := range []*cfg.Graph{workloadGraph(t, "bzip2"), small} {
		want := serialSigs(g)
		for _, procs := range []int{1, 4} {
			var got []chash.Sig
			withProcs(procs, func() { got = BlockSignatures(g) })
			if len(got) != len(want) {
				t.Fatalf("procs %d: %d signatures for %d blocks", procs, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("procs %d: block %#x signature %#x, reference %#x",
						procs, g.Starts[i], got[i], want[i])
				}
			}
		}
	}
}

// TestBuildIdenticalAcrossProcs checks that every format's image and
// Table are the same at GOMAXPROCS 1 and 4 and that the image is byte
// for byte the one the serial builder produced.
func TestBuildIdenticalAcrossProcs(t *testing.T) {
	g := workloadGraph(t, "gobmk")
	for _, f := range []Format{Normal, Aggressive, CFIOnly} {
		t.Run(f.String(), func(t *testing.T) {
			var tbls [2]*Table
			var imgs [2][]byte
			for i, procs := range []int{1, 4} {
				withProcs(procs, func() {
					var err error
					if tbls[i], imgs[i], err = Build(g, f, testKey, testKS); err != nil {
						t.Fatal(err)
					}
				})
			}
			if *tbls[0] != *tbls[1] {
				t.Fatalf("Table at GOMAXPROCS 1 %+v, at 4 %+v", *tbls[0], *tbls[1])
			}
			d0, d1 := sha256.Sum256(imgs[0]), sha256.Sum256(imgs[1])
			if d0 != d1 {
				t.Fatal("image differs between GOMAXPROCS 1 and 4")
			}
			if got := hex.EncodeToString(d0[:]); got != goldenImages[f] {
				t.Fatalf("image digest %s, serial builder's %s", got, goldenImages[f])
			}
		})
	}
}

// protectedGraph is a few-block graph, hashed inline by the kernel.
func protectedGraph(t *testing.T) *cfg.Graph {
	_, g, _ := protectedProgram(t, callerCallee, Normal)
	return g
}
