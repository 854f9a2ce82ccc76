// Package sigtable implements the RAM-resident reference signature table
// (paper Sec. V): one encrypted table per executable module, holding a
// record per basic block with the block's truncated crypto hash and its
// legal successor / returning-predecessor addresses.
//
// # Layout
//
// The table is a hash-indexed array of fixed-size records followed by an
// overflow area. A block is identified by the address A of its terminating
// instruction; its bucket is (A/8) mod P. Records that share a bucket are
// chained through the overflow area (the paper's collision chain); records
// needing more successor or predecessor addresses than fit inline chain to
// spill records (the paper's spill area). Each record is encrypted
// independently under the module's table key (AES-CTR keyed by record
// index) so that an SC miss can decrypt exactly the records it touches.
//
// # Formats
//
// Normal (Sec. V.B): 24-byte records; only computed control flow (returns,
// computed jumps/calls) carries explicit target lists — direct branches are
// validated implicitly by the block hash. Aggressive (Sec. V.C): the same
// record shape, but every block stores its full successor list so every
// branch target is verified explicitly. CFIOnly (Sec. V.D): 8-byte records
// for computed control flow only, with no hashes at all — control-flow
// integrity without code integrity, trading protection for a much smaller
// table.
package sigtable

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"rev/internal/cfg"
	"rev/internal/chash"
	"rev/internal/crypt"
	"rev/internal/isa"
)

// Format selects the validation coverage / table size trade-off.
type Format int

const (
	// Normal validates code integrity (BB hashes) plus computed control
	// flow (returns and computed jumps/calls).
	Normal Format = iota
	// Aggressive additionally validates every branch target explicitly.
	Aggressive
	// CFIOnly validates computed control flow only, with no BB hashes.
	CFIOnly
)

// String renders the format as its CLI spelling (-format flag values).
func (f Format) String() string {
	switch f {
	case Normal:
		return "normal"
	case Aggressive:
		return "aggressive"
	case CFIOnly:
		return "cfi-only"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// Record sizes per format.
const (
	RecordSize     = 24 // Normal and Aggressive
	CFIRecordSize  = 8
	HeaderSize     = 64
	tagBits        = 16
	tagMask        = 1<<tagBits - 1
	maxInlineAddrs = 2 // payload words in a primary record
	extAddrs       = 4 // address words in an extension record
)

// Primary record word layout (6 uint32 words):
//
//	w0  tag(16) | rectype(4) | term(4) | artificial(1) | nInlineT(2) | nInlineP(2)
//	w1  truncated BB hash
//	w2  payload address 0
//	w3  payload address 1
//	w4  spill link: index of first extension record (0 = none)
//	w5  collision link: index of next primary record in this bucket (0 = none)
//
// Extension record layout:
//
//	w0  rectype(4 at bit 16) | nT(3 at bit 20) | nP(3 at bit 23)
//	w1..w4  addresses (targets first, then predecessors)
//	w5  next extension link (0 = none)
const (
	recTypeShift  = 16
	termShift     = 20
	artificialBit = 24
	nInlineTShift = 25
	nInlinePShift = 27
	extNTShift    = 20
	extNPShift    = 23
)

// Record type codes.
const (
	recInvalid   = 0
	recBlock     = 1 // primary record for a basic block
	recExtension = 2 // extra successor/predecessor addresses
)

// Entry is the decoded logical content of a block's table entry.
type Entry struct {
	End      uint64
	Hash     chash.Sig
	Term     isa.Kind
	Targets  []uint64 // explicit legal successors (computed CF; all CF when Aggressive)
	RetPreds []uint64 // legal returning-predecessor RET addresses
}

// Table describes an installed signature table.
type Table struct {
	Format  Format
	Module  string
	Base    uint64 // virtual address of the table header in RAM
	Buckets uint64 // P
	Records uint64 // total records including overflow
	Size    uint64 // bytes, including header
	// CodeBytes/BinaryBytes support the size accounting the paper reports
	// (table size as a fraction of executable size).
	CodeBytes   uint64
	BinaryBytes uint64 // code + data
}

// SizeRatio returns table size / executable (code+data) size.
func (t *Table) SizeRatio() float64 {
	if t.BinaryBytes == 0 {
		return 0
	}
	return float64(t.Size) / float64(t.BinaryBytes)
}

// tagOf derives the record tag from a terminator address.
func tagOf(end uint64) uint32 { return uint32(end>>3) & tagMask }

// bucketOf derives the bucket index.
func bucketOf(end, buckets uint64) uint64 { return (end >> 3) % buckets }

// edgeBucket derives the CFI-only bucket from the (source, target) pair.
func edgeBucket(src, dst, buckets uint64) uint64 {
	h := (src >> 3) * 0x9e3779b97f4a7c15
	h ^= (dst >> 3) * 0xff51afd7ed558ccd
	return h % buckets
}

// rec is the builder's working representation of one physical record.
type rec struct {
	words [RecordSize / 4]uint32
}

// Build constructs the encrypted table image for a CFG.
//
// The returned image starts with the HeaderSize header (which embeds the
// wrapped table key, Sec. IX) followed by the encrypted records. Install
// the image in simulated RAM and create a Reader to use it.
func Build(g *cfg.Graph, format Format, key crypt.TableKey, ks *crypt.KeyStore) (*Table, []byte, error) {
	if format == CFIOnly {
		return buildCFIOnly(g, key, ks)
	}
	// P: one bucket per ~1.33 entries keeps the bucket array lean at the
	// cost of longer collision chains, matching the paper's trade of
	// memory space against miss-service time.
	p := nextPrime(uint64(len(g.Starts))*3/4 + 1)

	recs := make([]rec, p)
	alloc := func() uint32 {
		recs = append(recs, rec{})
		return uint32(len(recs) - 1)
	}

	sigs := BlockSignatures(g)
	for i, start := range g.Starts {
		b := g.ByStart[start]
		sig := sigs[i]

		var targets []uint64
		if format == Aggressive || b.Term.IsComputed() {
			targets = b.Succs
		}
		preds := b.RetPreds
		if err := checkAddrs(targets); err != nil {
			return nil, nil, err
		}
		if err := checkAddrs(preds); err != nil {
			return nil, nil, err
		}

		r := rec{}
		r.words[0] = tagOf(b.End) | recBlock<<recTypeShift | uint32(b.Term)<<termShift
		if b.Artificial {
			r.words[0] |= 1 << artificialBit
		}
		r.words[1] = uint32(sig)
		// Inline payload: up to two addresses, targets first then preds.
		nInlineT := len(targets)
		if nInlineT > maxInlineAddrs {
			nInlineT = maxInlineAddrs
		}
		nInlineP := len(preds)
		if nInlineP > maxInlineAddrs-nInlineT {
			nInlineP = maxInlineAddrs - nInlineT
		}
		for i := 0; i < nInlineT; i++ {
			r.words[2+i] = uint32(targets[i])
		}
		for i := 0; i < nInlineP; i++ {
			r.words[2+nInlineT+i] = uint32(preds[i])
		}
		r.words[0] |= uint32(nInlineT) << nInlineTShift
		r.words[0] |= uint32(nInlineP) << nInlinePShift

		// Spill chain for the remainder, targets first.
		if len(targets) > nInlineT || len(preds) > nInlineP {
			r.words[4] = buildSpill(targets[nInlineT:], preds[nInlineP:], alloc, &recs)
		}

		// Insert into bucket / collision chain (push-front of overflow
		// records behind the resident bucket record).
		bkt := bucketOf(b.End, p)
		if recs[bkt].words[0]>>recTypeShift&0xf == recInvalid {
			chain := recs[bkt].words[5]
			recs[bkt] = r
			recs[bkt].words[5] = chain
		} else {
			idx := alloc()
			r.words[5] = recs[bkt].words[5]
			recs[idx] = r
			recs[bkt].words[5] = idx
		}
	}

	img, tbl := serialize(recs, p, format, key, ks, g)
	return tbl, img, nil
}

// minBlocksPerWorker is the least work BlockSignatures hands one
// goroutine; smaller graphs hash inline, where a goroutine's start-up
// would cost more than it saves.
const minBlocksPerWorker = 512

// BlockSignatures returns the reference signature of every block of g,
// indexed like g.Starts: the CubeHash of the block's bytes in
// g.Module.Code bound to its start and end addresses, exactly as
// chash.BBSignature computes it. Blocks are hashed in place, without
// copying their bytes, across up to GOMAXPROCS goroutines; a graph too
// small to share out, or GOMAXPROCS 1, is hashed inline. The result
// does not depend on the worker count.
func BlockSignatures(g *cfg.Graph) []chash.Sig {
	sigs := make([]chash.Sig, len(g.Starts))
	workers := min(runtime.GOMAXPROCS(0), len(sigs)/minBlocksPerWorker)
	if workers <= 1 {
		hashBlocks(g, sigs, 0)
		return sigs
	}
	chunk := (len(sigs) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(sigs); lo += chunk {
		hi := min(lo+chunk, len(sigs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			hashBlocks(g, sigs[lo:hi], lo)
		}()
	}
	wg.Wait()
	return sigs
}

// hashBlocks fills sigs with the signatures of the blocks starting at
// g.Starts[first:first+len(sigs)].
func hashBlocks(g *cfg.Graph, sigs []chash.Sig, first int) {
	mod := g.Module
	for i := range sigs {
		b := g.ByStart[g.Starts[first+i]]
		chash.BBSignatureInto(&sigs[i], mod.Code[b.Start-mod.Base:b.End-mod.Base+isa.WordSize], b.Start, b.End)
	}
}

// buildSpill chains the given target and predecessor addresses into
// extension records (each self-describing how many of its addresses are
// targets vs predecessors) and returns the index of the first one.
func buildSpill(targets, preds []uint64, alloc func() uint32, recs *[]rec) uint32 {
	var head, tail uint32
	for len(targets) > 0 || len(preds) > 0 {
		idx := alloc()
		nT := len(targets)
		if nT > extAddrs {
			nT = extAddrs
		}
		nP := len(preds)
		if nP > extAddrs-nT {
			nP = extAddrs - nT
		}
		var w [RecordSize / 4]uint32
		w[0] = recExtension<<recTypeShift | uint32(nT)<<extNTShift | uint32(nP)<<extNPShift
		for j := 0; j < nT; j++ {
			w[1+j] = uint32(targets[j])
		}
		for j := 0; j < nP; j++ {
			w[1+nT+j] = uint32(preds[j])
		}
		(*recs)[idx].words = w
		targets = targets[nT:]
		preds = preds[nP:]
		if head == 0 {
			head = idx
		} else {
			(*recs)[tail].words[5] = idx
		}
		tail = idx
	}
	return head
}

func buildCFIOnly(g *cfg.Graph, key crypt.TableKey, ks *crypt.KeyStore) (*Table, []byte, error) {
	// Collect one record per (computed source, target) edge plus return
	// landing constraints folded into the same keying (the landing block's
	// RetPreds are validated as edges RET->site, already present as
	// computed targets of the RET, so no extra records are needed).
	type edge struct{ src, dst uint64 }
	var edges []edge
	for _, s := range g.Starts {
		b := g.ByStart[s]
		if !b.Term.IsComputed() {
			continue
		}
		for _, t := range b.Succs {
			edges = append(edges, edge{b.End, t})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})
	p := nextPrime(uint64(len(edges))*3/4 + 1)
	words := make([]uint64, p) // packed 8-byte records
	overflow := []uint64{}
	// Record: low 32 bits = target; bits 32..43 = 12-bit source tag;
	// bits 44..63 = 20-bit next index (0 = none). The bucket is chosen by
	// hashing the (source, target) PAIR: the validator always has both
	// when it checks an edge, and pair indexing keeps chains short even
	// for indirect-branch sites with hundreds of legal targets (a plain
	// source index would serialize a chain walk over the whole target
	// list, exactly the cost the paper's delayed return validation is
	// designed to avoid).
	pack := func(e edge, next uint64) uint64 {
		return uint64(uint32(e.dst)) | (e.src>>3&0xfff)<<32 | next<<44
	}
	for _, e := range edges {
		bkt := edgeBucket(e.src, e.dst, p)
		if words[bkt] == 0 {
			words[bkt] = pack(e, 0)
		} else {
			next := words[bkt] >> 44
			overflow = append(overflow, pack(e, next))
			idx := p + uint64(len(overflow)) - 1
			if idx >= 1<<20 {
				return nil, nil, fmt.Errorf("sigtable: CFI-only overflow index exceeds 20 bits")
			}
			words[bkt] = words[bkt]&^(uint64(0xfffff)<<44) | idx<<44
		}
	}
	words = append(words, overflow...)

	img := make([]byte, HeaderSize+len(words)*CFIRecordSize)
	cipher := crypt.NewCipher(key)
	for i, w := range words {
		off := HeaderSize + i*CFIRecordSize
		binary.LittleEndian.PutUint64(img[off:], w)
		cipher.EncryptEntry(uint64(i), img[off:off+CFIRecordSize])
	}
	tbl := &Table{
		Format:      CFIOnly,
		Module:      g.Module.Name,
		Buckets:     p,
		Records:     uint64(len(words)),
		Size:        uint64(len(img)),
		CodeBytes:   uint64(len(g.Module.Code)),
		BinaryBytes: uint64(len(g.Module.Code) + len(g.Module.Data)),
	}
	writeHeader(img, tbl, key, ks)
	return tbl, img, nil
}

func serialize(recs []rec, p uint64, format Format, key crypt.TableKey, ks *crypt.KeyStore, g *cfg.Graph) ([]byte, *Table) {
	img := make([]byte, HeaderSize+len(recs)*RecordSize)
	cipher := crypt.NewCipher(key)
	for i, r := range recs {
		off := HeaderSize + i*RecordSize
		for w, v := range r.words {
			binary.LittleEndian.PutUint32(img[off+4*w:], v)
		}
		cipher.EncryptEntry(uint64(i), img[off:off+RecordSize])
	}
	tbl := &Table{
		Format:      format,
		Module:      g.Module.Name,
		Buckets:     p,
		Records:     uint64(len(recs)),
		Size:        uint64(len(img)),
		CodeBytes:   uint64(len(g.Module.Code)),
		BinaryBytes: uint64(len(g.Module.Code) + len(g.Module.Data)),
	}
	writeHeader(img, tbl, key, ks)
	return img, tbl
}

func writeHeader(img []byte, t *Table, key crypt.TableKey, ks *crypt.KeyStore) {
	binary.LittleEndian.PutUint32(img[0:], 0x52455654) // "REVT"
	img[4] = byte(t.Format)
	binary.LittleEndian.PutUint64(img[8:], t.Buckets)
	binary.LittleEndian.PutUint64(img[16:], t.Records)
	w := ks.Wrap(key)
	copy(img[24:40], w[:])
}

// WrappedKeyFromImage extracts the wrapped table key stored in the header.
func WrappedKeyFromImage(img []byte) crypt.WrappedKey {
	var w crypt.WrappedKey
	copy(w[:], img[24:40])
	return w
}

// FromImage reconstructs table metadata from a serialized image (e.g. one
// written to disk by revgen and shipped alongside the binary, the
// deployment flow of Sec. IV.B). Base is left zero until Install.
func FromImage(img []byte) (*Table, error) {
	if len(img) < HeaderSize {
		return nil, fmt.Errorf("sigtable: image too short")
	}
	if binary.LittleEndian.Uint32(img[0:]) != 0x52455654 {
		return nil, fmt.Errorf("sigtable: bad magic")
	}
	f := Format(img[4])
	if f != Normal && f != Aggressive && f != CFIOnly {
		return nil, fmt.Errorf("sigtable: unknown format %d", img[4])
	}
	t := &Table{
		Format:  f,
		Buckets: binary.LittleEndian.Uint64(img[8:]),
		Records: binary.LittleEndian.Uint64(img[16:]),
		Size:    uint64(len(img)),
	}
	recSize := uint64(RecordSize)
	if f == CFIOnly {
		recSize = CFIRecordSize
	}
	if HeaderSize+t.Records*recSize != uint64(len(img)) {
		return nil, fmt.Errorf("sigtable: image size %d inconsistent with %d records", len(img), t.Records)
	}
	return t, nil
}

func checkAddrs(addrs []uint64) error {
	for _, a := range addrs {
		if a >= 1<<32 {
			return fmt.Errorf("sigtable: address %#x does not fit in 32 bits", a)
		}
	}
	return nil
}

func nextPrime(n uint64) uint64 {
	if n < 3 {
		return 3
	}
	for {
		if isPrime(n) {
			return n
		}
		n++
	}
}

func isPrime(n uint64) bool {
	if n%2 == 0 {
		return n == 2
	}
	for d := uint64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
