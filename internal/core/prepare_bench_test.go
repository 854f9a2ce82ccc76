package core

import (
	"testing"

	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// BenchmarkPrepare measures Prepare on the gobmk profile: two module
// loads, the profiling run, static analysis, the CFG build, the table
// build and the snapshot. The module is generated once, outside the
// timer, so each iteration pays only what a loader would.
func BenchmarkPrepare(b *testing.B) {
	p, err := workload.ByName("gobmk")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	build := func() (*prog.Program, error) {
		pr := prog.NewProgram()
		return pr, pr.Load(mod)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 100_000
	rc.REV = revConfig(sigtable.Normal, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(build, rc); err != nil {
			b.Fatal(err)
		}
	}
}
