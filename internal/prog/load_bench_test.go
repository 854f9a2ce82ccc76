package prog_test

import (
	"testing"

	"rev/internal/prog"
	"rev/internal/workload"
)

// BenchmarkLoad measures one loader pass (placement, image copy,
// relocation) over the gobmk profile's module, which carries about 13k
// relocations against as many data symbols.
func BenchmarkLoad(b *testing.B) {
	prof, err := workload.ByName("gobmk")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(mod.Relocs)), "relocs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog.NewProgram().Load(mod); err != nil {
			b.Fatal(err)
		}
	}
}
