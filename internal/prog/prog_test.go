package prog

import (
	"bytes"
	"testing"
	"testing/quick"

	"rev/internal/isa"
)

func makeCode(instrs ...isa.Instr) []byte {
	out := make([]byte, 0, len(instrs)*isa.WordSize)
	for _, in := range instrs {
		enc := in.Encode()
		out = append(out, enc[:]...)
	}
	return out
}

func TestMemoryReadWrite64(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xdeadbeefcafebabe)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafebabe {
		t.Errorf("Read64 = %#x", got)
	}
	// Unwritten memory reads as zero.
	if got := m.Read64(0x9000); got != 0 {
		t.Errorf("unwritten Read64 = %#x", got)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := PageSize - 3 // straddles the first page boundary
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page Read64 = %#x", got)
	}
	// Byte-level view is little-endian.
	if m.Read8(addr) != 0x88 || m.Read8(addr+7) != 0x11 {
		t.Error("cross-page byte layout wrong")
	}
}

func TestMemoryBytesRoundTrip(t *testing.T) {
	m := NewMemory()
	src := make([]byte, int(PageSize)*2+123)
	for i := range src {
		src[i] = byte(i * 7)
	}
	m.WriteBytes(PageSize-50, src)
	dst := make([]byte, len(src))
	m.ReadBytes(PageSize-50, dst)
	if !bytes.Equal(src, dst) {
		t.Error("multi-page byte round trip mismatch")
	}
}

func TestMemoryWord64Property(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr %= 1 << 30
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryZeroFillReadBytes(t *testing.T) {
	m := NewMemory()
	m.Write8(100, 0xff)
	dst := make([]byte, 8)
	for i := range dst {
		dst[i] = 0xaa
	}
	m.ReadBytes(96, dst)
	want := []byte{0, 0, 0, 0, 0xff, 0, 0, 0}
	if !bytes.Equal(dst, want) {
		t.Errorf("ReadBytes = %x, want %x", dst, want)
	}
}

func TestLoadPlacesModules(t *testing.T) {
	p := NewProgram()
	m1 := &Module{
		Name: "main",
		Code: makeCode(isa.Instr{Op: isa.ADDI, Rd: 1, Imm: 5}, isa.Instr{Op: isa.HALT}),
		Data: []byte{1, 2, 3, 4},
	}
	m2 := &Module{
		Name: "libc",
		Code: makeCode(isa.Instr{Op: isa.RET}),
	}
	if err := p.Load(m1); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(m2); err != nil {
		t.Fatal(err)
	}
	if m1.Base != CodeBase {
		t.Errorf("m1.Base = %#x", m1.Base)
	}
	if m2.Base <= m1.Limit() {
		t.Errorf("modules overlap: m2.Base=%#x m1.Limit=%#x", m2.Base, m1.Limit())
	}
	if m2.Base%PageSize != 0 {
		t.Errorf("m2.Base %#x not page aligned", m2.Base)
	}
	if got, _ := p.ModuleAt(m1.Base + 8); got != m1 {
		t.Error("ModuleAt failed for m1")
	}
	if got, _ := p.ModuleAt(m2.Base); got != m2 {
		t.Error("ModuleAt failed for m2")
	}
	if _, ok := p.ModuleAt(0x10); ok {
		t.Error("ModuleAt matched an unmapped address")
	}
	if p.Main() != m1 {
		t.Error("Main() should be the first loaded module")
	}
}

func TestLoadRejectsBadModules(t *testing.T) {
	p := NewProgram()
	if err := p.Load(&Module{Name: "empty"}); err == nil {
		t.Error("empty module should fail to load")
	}
	if err := p.Load(&Module{Name: "ragged", Code: []byte{1, 2, 3}}); err == nil {
		t.Error("non-word-multiple code should fail to load")
	}
}

func TestFetchInstrReadsMemoryNotImage(t *testing.T) {
	p := NewProgram()
	m := &Module{Name: "m", Code: makeCode(isa.Instr{Op: isa.NOP}, isa.Instr{Op: isa.HALT})}
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	if got := p.FetchInstr(m.Base); got.Op != isa.NOP {
		t.Errorf("FetchInstr = %v", got)
	}
	// Simulate code injection: overwrite the NOP in memory with a JMP.
	inj := isa.Instr{Op: isa.JMP, Imm: 16}
	enc := inj.Encode()
	p.Mem.WriteBytes(m.Base, enc[:])
	if got := p.FetchInstr(m.Base); got.Op != isa.JMP {
		t.Errorf("after injection FetchInstr = %v; fetch must see memory, not the module image", got)
	}
}

func TestSymbolsAndEntry(t *testing.T) {
	m := &Module{
		Name:    "m",
		Code:    makeCode(isa.Instr{Op: isa.NOP}, isa.Instr{Op: isa.NOP}, isa.Instr{Op: isa.HALT}),
		Entry:   8,
		Symbols: []Symbol{{Name: "f", Addr: 16}},
	}
	p := NewProgram()
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	if m.EntryAddr() != m.Base+8 {
		t.Errorf("EntryAddr = %#x", m.EntryAddr())
	}
	if a, ok := m.Lookup("f"); !ok || a != m.Base+16 {
		t.Errorf("Lookup(f) = %#x, %v", a, ok)
	}
	if _, ok := m.Lookup("missing"); ok {
		t.Error("Lookup(missing) should fail")
	}
	if m.NumInstrs() != 3 {
		t.Errorf("NumInstrs = %d", m.NumInstrs())
	}
	if got := m.InstrAt(16); got.Op != isa.HALT {
		t.Errorf("InstrAt(16) = %v", got)
	}
}

func TestModuleLimitAndContains(t *testing.T) {
	m := &Module{Name: "m", Code: makeCode(isa.Instr{Op: isa.NOP}, isa.Instr{Op: isa.HALT})}
	p := NewProgram()
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	if m.Limit() != m.Base+8 {
		t.Errorf("Limit = %#x", m.Limit())
	}
	if !m.Contains(m.Base) || !m.Contains(m.Base+8) {
		t.Error("Contains should cover both instructions")
	}
	if m.Contains(m.Base + 16) {
		t.Error("Contains should stop at Limit")
	}
}

func TestMemoryPagesSorted(t *testing.T) {
	m := NewMemory()
	m.Write8(5*PageSize, 1)
	m.Write8(1*PageSize, 1)
	m.Write8(3*PageSize, 1)
	pages := m.Pages()
	if len(pages) != 3 || pages[0] != 1 || pages[1] != 3 || pages[2] != 5 {
		t.Errorf("Pages = %v", pages)
	}
	if m.PageCount() != 3 {
		t.Errorf("PageCount = %d", m.PageCount())
	}
}

// relocModule is a two-instruction module whose first instruction's
// immediate is patched by the loader to the address of data symbol sym
// plus add.
func relocModule(syms []Symbol, sym string, add int64) *Module {
	return &Module{
		Name:     "m",
		Code:     makeCode(isa.Instr{Op: isa.ADDI, Rd: 1}, isa.Instr{Op: isa.HALT}),
		Data:     make([]byte, 64),
		DataSyms: syms,
		Relocs:   []Reloc{{InstrOff: 0, Sym: sym, Add: add}},
	}
}

func TestRelocPatchesImageAndMemory(t *testing.T) {
	p := NewProgram()
	m := relocModule([]Symbol{{Name: "a", Addr: 8}, {Name: "b", Addr: 24}}, "b", 4)
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	want := int32(m.DataOff + 24 + 4)
	if got := m.InstrAt(0).Imm; got != want {
		t.Errorf("image imm = %#x, want %#x", got, want)
	}
	if got := p.FetchInstr(m.Base).Imm; got != want {
		t.Errorf("memory imm = %#x, want %#x", got, want)
	}
}

func TestRelocDuplicateSymbolFirstDefinitionWins(t *testing.T) {
	p := NewProgram()
	m := relocModule([]Symbol{{Name: "x", Addr: 16}, {Name: "y", Addr: 0}, {Name: "x", Addr: 40}}, "x", 0)
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	if got, want := m.InstrAt(0).Imm, int32(m.DataOff+16); got != want {
		t.Errorf("imm = %#x, want %#x (the first definition of x)", got, want)
	}
}

func TestRelocUndefinedSymbolFails(t *testing.T) {
	p := NewProgram()
	err := p.Load(relocModule([]Symbol{{Name: "a", Addr: 0}}, "nope", 0))
	if err == nil {
		t.Fatal("reloc to an undefined symbol loaded")
	}
	if want := `prog: module "m" reloc to undefined data symbol "nope"`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if len(p.Modules) != 0 {
		t.Error("a module that failed to load was registered")
	}
}

func TestRelocOutOfRangeImm32Fails(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  int64
		want string
	}{
		{"above", 0x6000_0000, `prog: module "m" reloc "a" target 0x80000000 does not fit in imm32`},
		{"negative", -0x2000_0001, `prog: module "m" reloc "a" target -0x1 does not fit in imm32`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram()
			err := p.Load(relocModule([]Symbol{{Name: "a", Addr: 0}}, "a", tc.add))
			if err == nil {
				t.Fatal("out-of-range reloc target loaded")
			}
			if err.Error() != tc.want {
				t.Errorf("error = %q, want %q", err, tc.want)
			}
		})
	}
}
