// Package prog models executable modules, the simulated physical/virtual
// address space, and the (trusted) loader.
//
// A Module is the unit that owns one encrypted reference signature table in
// the REV design: the main executable and every statically or dynamically
// linked library is a separate Module with its own code range, its own
// signature table base and its own decryption key (paper Sec. IV.B). The
// loader places modules in the address space and records the per-module
// [start, limit] ranges that the SAG registers are loaded from.
package prog

import (
	"fmt"
	"sort"

	"rev/internal/isa"
)

// Address-space layout constants. Code, data, and signature tables live in
// disjoint regions so experiments can account for them separately.
const (
	CodeBase  uint64 = 0x0000_0000_0040_0000 // first module's code
	DataBase  uint64 = 0x0000_0000_2000_0000 // static data and heap
	StackBase uint64 = 0x0000_0000_7fff_0000 // stack grows down from here
	SigBase   uint64 = 0x0000_0000_4000_0000 // signature tables
	PageSize  uint64 = 4096
)

// Symbol is a named code address within a module (a function entry).
type Symbol struct {
	Name string
	Addr uint64
}

// Reloc asks the loader to patch the 32-bit immediate of the instruction at
// code offset InstrOff with the final virtual address of data symbol Sym
// plus Add. This is how assembled code references its data segment before
// the loader has chosen DataOff.
type Reloc struct {
	InstrOff uint64
	Sym      string
	Add      int64
}

// Module is one executable code module: the main program or a library.
type Module struct {
	Name string
	// Base is the virtual address of Code[0]. Zero until loaded.
	Base uint64
	// Code holds the raw instruction bytes. len(Code) is a multiple of
	// isa.WordSize.
	Code []byte
	// Entry is the offset (into Code) of the first executed instruction.
	// Only meaningful for the main module.
	Entry uint64
	// Symbols lists exported function entries, sorted by address offset.
	Symbols []Symbol
	// Data is the module's initialized data image, placed at DataOff past
	// DataBase by the loader.
	Data    []byte
	DataOff uint64
	// DataSyms names offsets within Data, referenced by Relocs.
	DataSyms []Symbol
	// Relocs are loader patches binding code immediates to data addresses.
	Relocs []Reloc
}

// Limit returns the last code virtual address of the module (inclusive),
// i.e. the address of its final instruction. Valid after loading.
func (m *Module) Limit() uint64 {
	if len(m.Code) == 0 {
		return m.Base
	}
	return m.Base + uint64(len(m.Code)) - isa.WordSize
}

// Contains reports whether addr falls within the module's code range.
func (m *Module) Contains(addr uint64) bool {
	return addr >= m.Base && addr <= m.Limit()
}

// EntryAddr returns the virtual address of the module's entry point.
func (m *Module) EntryAddr() uint64 { return m.Base + m.Entry }

// Lookup returns the virtual address of a named symbol.
func (m *Module) Lookup(name string) (uint64, bool) {
	for _, s := range m.Symbols {
		if s.Name == name {
			return m.Base + s.Addr, true
		}
	}
	return 0, false
}

// NumInstrs returns the static instruction count of the module.
func (m *Module) NumInstrs() int { return len(m.Code) / isa.WordSize }

// InstrAt decodes the instruction at a code offset (not a virtual address).
func (m *Module) InstrAt(off uint64) isa.Instr {
	return isa.Decode(m.Code[off : off+isa.WordSize])
}

// Program is a set of loaded modules sharing one address space.
type Program struct {
	Modules []*Module
	// Mem is the simulated memory holding code, data, stack, and the
	// encrypted signature tables.
	Mem *Memory
	// nextCode/nextData track loader placement.
	nextCode uint64
	nextData uint64
}

// NewProgram creates an empty program with a fresh address space.
func NewProgram() *Program {
	return &Program{
		Mem:      NewMemory(),
		nextCode: CodeBase,
		nextData: DataBase,
	}
}

// Clone returns an independent instance of the program over a deep-copied
// address space. The Module descriptors are shared — after Load they are
// read-only metadata (execution reads and mutates only Mem) — while every
// mapped memory page is copied, so the clone may be executed, attacked, or
// self-modified without the source observing anything. Cloning a prepared
// image costs one allocation per mapped page, orders of magnitude cheaper
// than re-running the program builder; Prepared.Run relies on this for its
// per-request fresh-instance guarantee.
func (p *Program) Clone() *Program {
	return &Program{
		Modules:  append([]*Module(nil), p.Modules...),
		Mem:      p.Mem.Clone(),
		nextCode: p.nextCode,
		nextData: p.nextData,
	}
}

// Load places a module into the address space: assigns Base and DataOff,
// copies code and data into memory, and registers the module. Modules are
// padded to page boundaries so their SAG limit ranges never overlap.
func (p *Program) Load(m *Module) error {
	if len(m.Code) == 0 {
		return fmt.Errorf("prog: module %q has no code", m.Name)
	}
	if len(m.Code)%isa.WordSize != 0 {
		return fmt.Errorf("prog: module %q code length %d not a multiple of %d",
			m.Name, len(m.Code), isa.WordSize)
	}
	m.Base = p.nextCode
	p.Mem.WriteBytes(m.Base, m.Code)
	p.nextCode = pageAlign(m.Base + uint64(len(m.Code)))

	if len(m.Data) > 0 {
		m.DataOff = p.nextData
		p.Mem.WriteBytes(m.DataOff, m.Data)
		p.nextData = pageAlign(m.DataOff + uint64(len(m.Data)))
	}
	if err := p.applyRelocs(m); err != nil {
		return err
	}
	p.Modules = append(p.Modules, m)
	return nil
}

// applyRelocs patches data-address immediates into the module image and the
// loaded memory copy, keeping the two identical (the signature table is
// built from the final bytes, so both views must agree). Symbols resolve
// through a name index built once per call; when DataSyms defines a name
// more than once, the first definition wins.
func (p *Program) applyRelocs(m *Module) error {
	if len(m.Relocs) == 0 {
		return nil
	}
	syms := make(map[string]uint64, len(m.DataSyms))
	for _, s := range m.DataSyms {
		if _, dup := syms[s.Name]; !dup {
			syms[s.Name] = s.Addr
		}
	}
	for _, r := range m.Relocs {
		symOff, found := syms[r.Sym]
		if !found {
			return fmt.Errorf("prog: module %q reloc to undefined data symbol %q", m.Name, r.Sym)
		}
		addr := int64(m.DataOff) + int64(symOff) + r.Add
		if addr < 0 || addr > int64(^uint32(0)>>1) {
			return fmt.Errorf("prog: module %q reloc %q target %#x does not fit in imm32", m.Name, r.Sym, addr)
		}
		in := isa.Decode(m.Code[r.InstrOff : r.InstrOff+isa.WordSize])
		in.Imm = int32(addr)
		in.EncodeTo(m.Code[r.InstrOff : r.InstrOff+isa.WordSize])
		var buf [isa.WordSize]byte
		in.EncodeTo(buf[:])
		p.Mem.WriteBytes(m.Base+r.InstrOff, buf[:])
	}
	return nil
}

// Main returns the first loaded module (the executable).
func (p *Program) Main() *Module {
	if len(p.Modules) == 0 {
		return nil
	}
	return p.Modules[0]
}

// ModuleAt returns the module whose code range contains addr.
func (p *Program) ModuleAt(addr uint64) (*Module, bool) {
	for _, m := range p.Modules {
		if m.Contains(addr) {
			return m, true
		}
	}
	return nil, false
}

// FetchInstr decodes the instruction at a virtual address from memory.
// Decoding from memory (not from the module image) is essential: injected
// code is visible here exactly as it is to the hardware fetch unit.
func (p *Program) FetchInstr(addr uint64) isa.Instr {
	var buf [isa.WordSize]byte
	p.Mem.ReadBytes(addr, buf[:])
	return isa.Decode(buf[:])
}

func pageAlign(a uint64) uint64 {
	return (a + PageSize - 1) &^ (PageSize - 1)
}

// AddressSpace is the access interface shared by the flat simulated memory
// and views layered over it (e.g. shadow paging). The functional machine,
// the REV engine, and the signature-table reader all operate through it.
type AddressSpace interface {
	Read8(addr uint64) byte
	Write8(addr uint64, v byte)
	Read64(addr uint64) uint64
	Write64(addr uint64, v uint64)
	ReadBytes(addr uint64, dst []byte)
	WriteBytes(addr uint64, src []byte)
}

// CodeVersioner is implemented by address spaces that maintain a
// *code-version epoch*: a counter that advances whenever a store lands in a
// registered text range. The REV engine uses it to memoize basic-block
// signatures safely — a memoized signature is valid only while the epoch it
// was computed under is still current, so self-modifying code and run-time
// code injection invalidate the memo exactly when the code bytes can have
// changed. Address spaces that do not implement it simply get no
// memoization (the engine recomputes every block, as the pre-memo model
// did).
type CodeVersioner interface {
	// WatchCode registers [start, end] (inclusive) as a text range whose
	// mutation must advance the code version. Registering a range advances
	// the version itself (conservatively invalidating prior memoizations).
	WatchCode(start, end uint64)
	// CodeVersion returns the current code-version epoch.
	CodeVersion() uint64
}

// CodeWatch is an embeddable code-version tracker: a handful of watched
// [start, end] text ranges, an overall bounds fast path, and the epoch
// counter. Writes outside [lo, hi] cost two compares; the range walk only
// runs for writes that land between the lowest and highest watched address.
type CodeWatch struct {
	lo, hi  uint64 // overall watched bounds; lo > hi when nothing watched
	ranges  [][2]uint64
	version uint64
}

// Watch registers an inclusive text range and advances the epoch.
func (w *CodeWatch) Watch(start, end uint64) {
	if len(w.ranges) == 0 {
		w.lo, w.hi = start, end
	} else {
		if start < w.lo {
			w.lo = start
		}
		if end > w.hi {
			w.hi = end
		}
	}
	w.ranges = append(w.ranges, [2]uint64{start, end})
	w.version++
}

// Version returns the current code-version epoch.
func (w *CodeWatch) Version() uint64 { return w.version }

// Note records a write of n bytes at addr, advancing the epoch if the write
// intersects any watched range. The common case (no intersection with the
// overall bounds) is two comparisons.
func (w *CodeWatch) Note(addr, n uint64) {
	if n == 0 {
		return
	}
	last := addr + n - 1
	if last < w.lo || addr > w.hi {
		return
	}
	for _, r := range w.ranges {
		if last >= r[0] && addr <= r[1] {
			w.version++
			return
		}
	}
}

// Memory is a sparse, page-granular simulated physical memory.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	watch CodeWatch

	// One-entry page-translation cache. Instruction fetch, the signature
	// hot path, and stack traffic are overwhelmingly same-page, so the
	// common access skips the page-map lookup entirely. lastPG == nil means
	// empty; it never caches absent pages (reads of unmapped memory are
	// rare and must observe pages created later).
	lastPN uint64
	lastPG *[PageSize]byte
}

var (
	_ AddressSpace  = (*Memory)(nil)
	_ CodeVersioner = (*Memory)(nil)
)

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{
		pages: make(map[uint64]*[PageSize]byte),
		watch: CodeWatch{lo: ^uint64(0), hi: 0},
	}
}

// Clone returns an independent deep copy of the memory: every mapped page
// is copied into fresh backing, while the code watch and the one-entry
// translation cache are reset (watch registrations belong to the engine of
// a particular run, and a cached page pointer must never alias the source's
// pages).
func (mm *Memory) Clone() *Memory {
	c := NewMemory()
	for pn, pg := range mm.pages {
		np := new([PageSize]byte)
		*np = *pg
		c.pages[pn] = np
	}
	return c
}

// ResetFrom rewrites the memory to read byte-identically to src without
// allocating in the steady state: pages present in both are copied in
// place, pages this memory materialized beyond src (stack, heap) are
// zeroed but stay mapped (an absent page and an all-zero page are
// indistinguishable through AddressSpace), and the code watch, epoch
// counter, and translation cache return to their post-NewMemory state.
// This is the run-arena alternative to src.Clone(): same observable
// contents, zero per-page allocations after the first lap.
func (mm *Memory) ResetFrom(src *Memory) {
	for pn, pg := range mm.pages {
		if sp := src.pages[pn]; sp != nil {
			*pg = *sp
		} else {
			*pg = [PageSize]byte{}
		}
	}
	for pn, sp := range src.pages {
		if mm.pages[pn] == nil {
			np := new([PageSize]byte)
			*np = *sp
			mm.pages[pn] = np
		}
	}
	mm.watch.reset()
	mm.lastPN, mm.lastPG = 0, nil
}

// reset returns the watch to its post-NewMemory state, keeping the grown
// ranges backing so re-registration does not allocate.
func (w *CodeWatch) reset() {
	w.lo, w.hi = ^uint64(0), 0
	w.ranges = w.ranges[:0]
	w.version = 0
}

// WatchCode registers a text range for code-version tracking.
func (mm *Memory) WatchCode(start, end uint64) { mm.watch.Watch(start, end) }

// CodeVersion returns the current code-version epoch.
func (mm *Memory) CodeVersion() uint64 { return mm.watch.Version() }

func (mm *Memory) page(addr uint64, create bool) (*[PageSize]byte, uint64) {
	pn := addr / PageSize
	if mm.lastPG != nil && mm.lastPN == pn {
		return mm.lastPG, addr % PageSize
	}
	pg := mm.pages[pn]
	if pg == nil && create {
		pg = new([PageSize]byte)
		mm.pages[pn] = pg
	}
	if pg != nil {
		mm.lastPN, mm.lastPG = pn, pg
	}
	return pg, addr % PageSize
}

// Read8 reads one byte.
func (mm *Memory) Read8(addr uint64) byte {
	pg, off := mm.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[off]
}

// Write8 writes one byte.
func (mm *Memory) Write8(addr uint64, v byte) {
	mm.watch.Note(addr, 1)
	pg, off := mm.page(addr, true)
	pg[off] = v
}

// Read64 reads a little-endian 64-bit word at any alignment.
func (mm *Memory) Read64(addr uint64) uint64 {
	var v uint64
	if addr%PageSize <= PageSize-8 {
		pg, off := mm.page(addr, false)
		if pg == nil {
			return 0
		}
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(pg[off+uint64(i)])
		}
		return v
	}
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(mm.Read8(addr+uint64(i)))
	}
	return v
}

// Write64 writes a little-endian 64-bit word at any alignment.
func (mm *Memory) Write64(addr uint64, v uint64) {
	mm.watch.Note(addr, 8)
	if addr%PageSize <= PageSize-8 {
		pg, off := mm.page(addr, true)
		for i := 0; i < 8; i++ {
			pg[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < 8; i++ {
		mm.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadBytes fills dst from memory starting at addr.
func (mm *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		pg, off := mm.page(addr, false)
		n := int(PageSize - off)
		if n > len(dst) {
			n = len(dst)
		}
		if pg == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], pg[off:off+uint64(n)])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// WriteBytes copies src into memory starting at addr.
func (mm *Memory) WriteBytes(addr uint64, src []byte) {
	mm.watch.Note(addr, uint64(len(src)))
	for len(src) > 0 {
		pg, off := mm.page(addr, true)
		n := int(PageSize - off)
		if n > len(src) {
			n = len(src)
		}
		copy(pg[off:off+uint64(n)], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// PageCount returns the number of materialized pages (for tests and
// footprint accounting).
func (mm *Memory) PageCount() int { return len(mm.pages) }

// Pages returns the sorted page numbers currently materialized.
func (mm *Memory) Pages() []uint64 {
	out := make([]uint64, 0, len(mm.pages))
	for pn := range mm.pages {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
