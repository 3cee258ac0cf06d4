// Package workload turns recorded (or synthesised) memory-access traces
// into analysable programs: a compact schema-versioned binary trace
// format with streamed decode and a seekable block index, a replayer that
// compiles any decoded trace into an isa.Program the full simulation
// machinery runs unmodified, and a seeded synthetic-trace generator
// sweeping locality / footprint / sharing / stride parameters.
//
// This is the frontend the paper's claim needs: EFL makes *arbitrary*
// co-running programs time-analysable on a shared cache, so the analysis
// pipeline must accept arbitrary access patterns, not just the 14
// hand-written bench kernels. Real cache-analysis evaluations are driven
// by recorded traces of real programs for the same reason.
//
// # Trace format (version 1)
//
// A trace file is header, block index, then block payloads — every
// multi-byte integer little-endian:
//
//	header (40 bytes):
//	  [0:4)   magic "EFLT"
//	  [4:6)   version  u16 (== 1)
//	  [6]     addrBits u8  (addresses are < 1<<addrBits; 4..31)
//	  [7]     flags    u8  (== 0; reserved)
//	  [8:16)  records  u64 (total record count; 1..MaxRecords)
//	  [16:24) dataBytes u64 (data-segment size the addresses index)
//	  [24:32) sharedBytes u64 (prefix of the segment shared across cores)
//	  [32:36) blockLen u32 (records per block; the last block may be short)
//	  [36:40) blockCount u32 (== ceil(records/blockLen))
//
//	block index (blockCount x 24 bytes):
//	  [0:8)   offset   u64 (file-absolute byte offset of the block payload)
//	  [8:16)  prevAddr u64 (delta base: the address of the last record
//	                        before this block; 0 for block 0)
//	  [16:20) count    u32 (records in this block)
//	  [20:24) size     u32 (payload bytes of this block)
//
//	block payload (count records, each two uvarints):
//	  v1 = zigzag(addr - prevAddr) << 1 | storeBit
//	  v2 = gap (idle instructions executed before the NEXT record)
//
// Block payloads are contiguous: the first block starts right after the
// index and the last one ends exactly at the end of the file. The block
// index makes the stream seekable — SeekBlock(k) resumes decoding at any
// block boundary without replaying the prefix, because each entry carries
// its own delta base.
//
// Traces are content-addressed by the SHA-256 of the raw file bytes (the
// service's /v1/trace endpoint and the cluster's shared store both key on
// it), so the encoder is canonical: the same records always produce the
// same bytes.
package workload

import (
	"encoding/binary"
	"fmt"
)

// Format constants and limits. The limits bound what a hostile upload can
// make the service allocate or execute: a trace that validates replays
// into at most MaxReplayInstr dynamic instructions over a data segment of
// at most MaxDataBytes.
const (
	// Magic opens every trace file.
	Magic = "EFLT"
	// Version is the format schema version this package reads and writes.
	Version = 1
	// HeaderBytes is the fixed header size.
	HeaderBytes = 40
	// IndexEntryBytes is the size of one block-index entry.
	IndexEntryBytes = 24
	// MaxRecords bounds the record count of one trace.
	MaxRecords = 1 << 20
	// MaxDataBytes bounds the declared data segment (the simulator
	// allocates it per core; the LLC under analysis is tens of KB, so
	// footprints beyond this add memory pressure, not cache behaviour).
	MaxDataBytes = 16 << 20
	// MaxGap bounds one record's idle-instruction gap.
	MaxGap = 1 << 20
	// MaxReplayInstr bounds the replayed program's dynamic instruction
	// count (accesses + gap filler + prologue/epilogue). It keeps a
	// 4 MiB upload from encoding hours of simulation.
	MaxReplayInstr = 2 << 20
	// MaxBlockLen bounds records per block; DefaultBlockLen is the
	// encoder default (a few KB per block — cheap to index, cheap to
	// seek).
	MaxBlockLen     = 1 << 16
	DefaultBlockLen = 4096
	// MinAddrBits and MaxAddrBits bound the declared address width.
	MinAddrBits = 4
	MaxAddrBits = 31
	// sharedAlign is the alignment sharedBytes must have (the platform
	// line size: a shared window must cover whole cache lines).
	sharedAlign = 16
	// wordBytes is the access width of every record (the ISA's LD/ST
	// move 8-byte words).
	wordBytes = 8
)

// Record is one decoded trace record: a word access at Addr (a byte
// offset into the data segment), whether it is a store, and how many idle
// instructions separate it from the next access.
type Record struct {
	Addr  uint64
	Store bool
	Gap   uint32
}

// Meta is a validated trace's header summary plus the full-scan totals
// Validate derives.
type Meta struct {
	AddrBits    uint8
	Records     uint64
	DataBytes   uint64
	SharedBytes uint64
	BlockLen    uint32
	BlockCount  uint32
	// ReplayInstr is the exact dynamic instruction count Replay's program
	// executes (accesses + gaps + prologue + halt). Only set by Validate
	// (it requires the full scan).
	ReplayInstr uint64
	// Stores counts store records. Only set by Validate.
	Stores uint64
}

// indexEntry is one decoded block-index row.
type indexEntry struct {
	offset   uint64
	prevAddr uint64
	count    uint32
	size     uint32
}

// zigzag maps a signed delta onto the uvarint-friendly unsigned form.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer encodes a trace in memory. It is canonical: the same sequence
// of Add calls always yields the same bytes, which is what makes content
// addressing (and the generator's same-seed => byte-identical guarantee)
// work.
type Writer struct {
	addrBits    uint8
	dataBytes   uint64
	sharedBytes uint64
	blockLen    uint32

	records  uint64
	prev     uint64 // last written address (delta base)
	index    []indexEntry
	payload  []byte
	blockBuf []byte // current (unfinished) block payload
	blockN   uint32 // records in the current block
	blockPA  uint64 // delta base at the current block's start
	varbuf   [2 * binary.MaxVarintLen64]byte
}

// NewWriter starts a trace over a dataBytes-byte segment whose first
// sharedBytes bytes are shared across cores, with addresses declared
// addrBits wide. blockLen <= 0 selects DefaultBlockLen.
func NewWriter(addrBits uint8, dataBytes, sharedBytes uint64, blockLen int) (*Writer, error) {
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	if err := checkHeaderParams(addrBits, dataBytes, sharedBytes, uint32(blockLen)); err != nil {
		return nil, err
	}
	if blockLen > MaxBlockLen {
		return nil, fmt.Errorf("workload: block length %d exceeds %d", blockLen, MaxBlockLen)
	}
	return &Writer{
		addrBits: addrBits, dataBytes: dataBytes, sharedBytes: sharedBytes,
		blockLen: uint32(blockLen),
	}, nil
}

// checkHeaderParams validates the header fields shared by the writer and
// the reader (the reader additionally bounds records/blockCount).
func checkHeaderParams(addrBits uint8, dataBytes, sharedBytes uint64, blockLen uint32) error {
	if addrBits < MinAddrBits || addrBits > MaxAddrBits {
		return fmt.Errorf("workload: address width %d outside [%d,%d] bits", addrBits, MinAddrBits, MaxAddrBits)
	}
	if dataBytes < wordBytes {
		return fmt.Errorf("workload: data segment %d smaller than one %d-byte word", dataBytes, wordBytes)
	}
	if dataBytes > MaxDataBytes {
		return fmt.Errorf("workload: data segment %d exceeds %d bytes", dataBytes, MaxDataBytes)
	}
	if dataBytes > 1<<addrBits {
		return fmt.Errorf("workload: data segment %d overruns the declared %d-bit address space", dataBytes, addrBits)
	}
	if sharedBytes > dataBytes {
		return fmt.Errorf("workload: shared window %d exceeds the data segment %d", sharedBytes, dataBytes)
	}
	if sharedBytes%sharedAlign != 0 {
		return fmt.Errorf("workload: shared window %d is not a multiple of the %d-byte line size", sharedBytes, sharedAlign)
	}
	if blockLen < 1 || blockLen > MaxBlockLen {
		return fmt.Errorf("workload: block length %d outside [1,%d]", blockLen, MaxBlockLen)
	}
	return nil
}

// Add appends one record.
func (w *Writer) Add(r Record) error {
	if w.records >= MaxRecords {
		return fmt.Errorf("workload: trace exceeds %d records", MaxRecords)
	}
	if err := checkRecord(r, w.addrBits, w.dataBytes); err != nil {
		return err
	}
	if w.blockN == 0 {
		w.blockPA = w.prev
	}
	v1 := zigzag(int64(r.Addr)-int64(w.prev)) << 1
	if r.Store {
		v1 |= 1
	}
	n := binary.PutUvarint(w.varbuf[:], v1)
	n += binary.PutUvarint(w.varbuf[n:], uint64(r.Gap))
	w.blockBuf = append(w.blockBuf, w.varbuf[:n]...)
	w.prev = r.Addr
	w.blockN++
	w.records++
	if w.blockN == w.blockLen {
		w.flushBlock()
	}
	return nil
}

// checkRecord validates one record against the declared geometry.
func checkRecord(r Record, addrBits uint8, dataBytes uint64) error {
	if r.Addr >= 1<<addrBits {
		return fmt.Errorf("workload: address %#x outside the declared %d-bit address space", r.Addr, addrBits)
	}
	if r.Addr+wordBytes > dataBytes {
		return fmt.Errorf("workload: address %#x overruns the %d-byte data segment", r.Addr, dataBytes)
	}
	if r.Gap > MaxGap {
		return fmt.Errorf("workload: gap %d exceeds %d", r.Gap, MaxGap)
	}
	return nil
}

// flushBlock seals the current block into the index and payload.
func (w *Writer) flushBlock() {
	w.index = append(w.index, indexEntry{
		prevAddr: w.blockPA,
		count:    w.blockN,
		size:     uint32(len(w.blockBuf)),
	})
	w.payload = append(w.payload, w.blockBuf...)
	w.blockBuf = w.blockBuf[:0]
	w.blockN = 0
}

// Bytes seals the trace and returns the canonical encoding. The writer
// must hold at least one record.
func (w *Writer) Bytes() ([]byte, error) {
	if w.records == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if w.blockN > 0 {
		w.flushBlock()
	}
	blockCount := uint32(len(w.index))
	out := make([]byte, 0, HeaderBytes+int(blockCount)*IndexEntryBytes+len(w.payload))
	var hdr [HeaderBytes]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	hdr[6] = w.addrBits
	hdr[7] = 0
	binary.LittleEndian.PutUint64(hdr[8:16], w.records)
	binary.LittleEndian.PutUint64(hdr[16:24], w.dataBytes)
	binary.LittleEndian.PutUint64(hdr[24:32], w.sharedBytes)
	binary.LittleEndian.PutUint32(hdr[32:36], w.blockLen)
	binary.LittleEndian.PutUint32(hdr[36:40], blockCount)
	out = append(out, hdr[:]...)
	offset := uint64(HeaderBytes + int(blockCount)*IndexEntryBytes)
	var ent [IndexEntryBytes]byte
	for _, e := range w.index {
		binary.LittleEndian.PutUint64(ent[0:8], offset)
		binary.LittleEndian.PutUint64(ent[8:16], e.prevAddr)
		binary.LittleEndian.PutUint32(ent[16:20], e.count)
		binary.LittleEndian.PutUint32(ent[20:24], e.size)
		out = append(out, ent[:]...)
		offset += uint64(e.size)
	}
	out = append(out, w.payload...)
	return out, nil
}

// Reader streams records out of an encoded trace. NewReader validates the
// header and the whole block index eagerly — a malformed file is rejected
// up front with a descriptive error, never a panic or a silent short read
// — and Next validates each record as it decodes.
type Reader struct {
	data  []byte
	meta  Meta
	index []indexEntry

	block  int    // current block (index into index)
	pos    int    // next byte to decode (file-absolute)
	end    int    // current block's payload end
	left   uint32 // records left in the current block
	prev   uint64 // delta base
	seen   uint64 // records decoded so far (across SeekBlock: from the seek point)
	remain uint64 // records remaining until end of trace
}

// NewReader validates data's header and block index and returns a reader
// positioned at the first record.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < HeaderBytes {
		return nil, fmt.Errorf("workload: truncated header: %d of %d bytes", len(data), HeaderBytes)
	}
	if string(data[0:4]) != Magic {
		return nil, fmt.Errorf("workload: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("workload: unsupported version %d (want %d)", v, Version)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("workload: reserved flags %#x set", data[7])
	}
	r := &Reader{data: data}
	r.meta = Meta{
		AddrBits:    data[6],
		Records:     binary.LittleEndian.Uint64(data[8:16]),
		DataBytes:   binary.LittleEndian.Uint64(data[16:24]),
		SharedBytes: binary.LittleEndian.Uint64(data[24:32]),
		BlockLen:    binary.LittleEndian.Uint32(data[32:36]),
		BlockCount:  binary.LittleEndian.Uint32(data[36:40]),
	}
	m := &r.meta
	if err := checkHeaderParams(m.AddrBits, m.DataBytes, m.SharedBytes, m.BlockLen); err != nil {
		return nil, err
	}
	if m.Records < 1 || m.Records > MaxRecords {
		return nil, fmt.Errorf("workload: record count %d outside [1,%d]", m.Records, MaxRecords)
	}
	wantBlocks := (m.Records + uint64(m.BlockLen) - 1) / uint64(m.BlockLen)
	if uint64(m.BlockCount) != wantBlocks {
		return nil, fmt.Errorf("workload: block count %d does not cover %d records at %d per block (want %d)",
			m.BlockCount, m.Records, m.BlockLen, wantBlocks)
	}
	indexEnd := HeaderBytes + int(m.BlockCount)*IndexEntryBytes
	if indexEnd > len(data) {
		return nil, fmt.Errorf("workload: truncated block index: file is %d bytes, index ends at %d", len(data), indexEnd)
	}
	r.index = make([]indexEntry, m.BlockCount)
	offset := uint64(indexEnd)
	var total uint64
	for k := range r.index {
		base := HeaderBytes + k*IndexEntryBytes
		e := indexEntry{
			offset:   binary.LittleEndian.Uint64(data[base : base+8]),
			prevAddr: binary.LittleEndian.Uint64(data[base+8 : base+16]),
			count:    binary.LittleEndian.Uint32(data[base+16 : base+20]),
			size:     binary.LittleEndian.Uint32(data[base+20 : base+24]),
		}
		if e.offset != offset {
			return nil, fmt.Errorf("workload: block %d at offset %d, want contiguous %d", k, e.offset, offset)
		}
		wantCount := uint64(m.BlockLen)
		if k == len(r.index)-1 {
			wantCount = m.Records - uint64(m.BlockLen)*uint64(k)
		}
		if uint64(e.count) != wantCount {
			return nil, fmt.Errorf("workload: block %d holds %d records, want %d", k, e.count, wantCount)
		}
		if uint64(e.size) < 2*uint64(e.count) {
			// Every record is at least two uvarint bytes; a smaller size
			// means the declared count overflows the block's length.
			return nil, fmt.Errorf("workload: block %d declares %d records in %d bytes (need >= %d)",
				k, e.count, e.size, 2*e.count)
		}
		if k == 0 && e.prevAddr != 0 {
			return nil, fmt.Errorf("workload: block 0 delta base %#x, want 0", e.prevAddr)
		}
		if e.prevAddr >= 1<<m.AddrBits {
			return nil, fmt.Errorf("workload: block %d delta base %#x outside the %d-bit address space", k, e.prevAddr, m.AddrBits)
		}
		r.index[k] = e
		offset += uint64(e.size)
		total += uint64(e.count)
	}
	if offset != uint64(len(data)) {
		return nil, fmt.Errorf("workload: blocks end at %d, file is %d bytes", offset, len(data))
	}
	if total != m.Records {
		return nil, fmt.Errorf("workload: index covers %d records, header declares %d", total, m.Records)
	}
	if err := r.SeekBlock(0); err != nil {
		return nil, err
	}
	return r, nil
}

// Meta returns the trace's header summary (ReplayInstr/Stores are only
// populated by Validate).
func (r *Reader) Meta() Meta { return r.meta }

// Blocks returns the block count.
func (r *Reader) Blocks() int { return len(r.index) }

// SeekBlock positions the reader at the first record of block k; the
// following Next calls stream to the end of the trace.
func (r *Reader) SeekBlock(k int) error {
	if k < 0 || k >= len(r.index) {
		return fmt.Errorf("workload: seek to block %d of %d", k, len(r.index))
	}
	r.enterBlock(k)
	r.seen = 0
	r.remain = r.meta.Records - uint64(r.meta.BlockLen)*uint64(k)
	return nil
}

// Next decodes the next record into rec. It returns false at the end of
// the trace, and an error on any malformed payload: varint truncation, a
// record straddling its block boundary, an address outside the declared
// width or segment, or an oversized gap.
func (r *Reader) Next(rec *Record) (bool, error) {
	if r.remain == 0 {
		return false, nil
	}
	if r.left == 0 {
		// Enter the next block, re-basing the delta on its index entry
		// (validated equal to the running address by Validate's full
		// scan, and what makes SeekBlock equivalent to streaming past).
		if r.block+1 >= len(r.index) {
			return false, fmt.Errorf("workload: record stream ran past block %d of %d", r.block+1, len(r.index))
		}
		r.enterBlock(r.block + 1)
	}
	v1, n := binary.Uvarint(r.data[r.pos:r.end])
	if n <= 0 {
		return false, fmt.Errorf("workload: block %d: truncated record at offset %d", r.block, r.pos)
	}
	r.pos += n
	v2, n := binary.Uvarint(r.data[r.pos:r.end])
	if n <= 0 {
		return false, fmt.Errorf("workload: block %d: truncated gap at offset %d", r.block, r.pos)
	}
	r.pos += n
	addr := int64(r.prev) + unzigzag(v1>>1)
	if addr < 0 || uint64(addr) >= 1<<r.meta.AddrBits {
		return false, fmt.Errorf("workload: block %d: address %d outside the declared %d-bit address space", r.block, addr, r.meta.AddrBits)
	}
	rec.Addr = uint64(addr)
	rec.Store = v1&1 != 0
	if rec.Addr+wordBytes > r.meta.DataBytes {
		return false, fmt.Errorf("workload: block %d: address %#x overruns the %d-byte data segment", r.block, rec.Addr, r.meta.DataBytes)
	}
	if v2 > MaxGap {
		return false, fmt.Errorf("workload: block %d: gap %d exceeds %d", r.block, v2, MaxGap)
	}
	rec.Gap = uint32(v2)
	r.prev = rec.Addr
	r.left--
	r.seen++
	r.remain--
	if r.left == 0 && r.pos != r.end {
		return false, fmt.Errorf("workload: block %d: %d trailing payload bytes", r.block, r.end-r.pos)
	}
	return true, nil
}

// enterBlock positions the reader at the first record of block k (in
// range) without touching the streaming counters: Next crosses block
// boundaries with it, SeekBlock also resets the counters.
func (r *Reader) enterBlock(k int) {
	e := r.index[k]
	r.block = k
	r.pos = int(e.offset)
	r.end = int(e.offset) + int(e.size)
	r.left = e.count
	r.prev = e.prevAddr
}

// Validate fully decodes data, checking every record and the block
// index's delta-base continuity, and returns the trace's Meta with the
// full-scan totals (exact replay instruction count, store count). It is
// the gate every untrusted trace passes before it is stored or replayed.
func Validate(data []byte) (Meta, error) {
	r, err := NewReader(data)
	if err != nil {
		return Meta{}, err
	}
	var (
		rec    Record
		prev   uint64
		idx    uint64
		instr  uint64 = 2 // prologue MOVI + HALT
		stores uint64
	)
	for {
		// Check delta-base continuity at each block boundary: the index
		// entry must name the actual previous address, or seeking to the
		// block would decode different records than streaming into it.
		if r.left == 0 && r.remain > 0 {
			e := r.index[r.block+1]
			if e.prevAddr != prev {
				return Meta{}, fmt.Errorf("workload: block %d delta base %#x, but the preceding record's address is %#x",
					r.block+1, e.prevAddr, prev)
			}
		}
		ok, err := r.Next(&rec)
		if err != nil {
			return Meta{}, fmt.Errorf("record %d: %w", idx, err)
		}
		if !ok {
			break
		}
		instr += 1 + uint64(rec.Gap)
		if rec.Store {
			stores++
		}
		if instr > MaxReplayInstr {
			return Meta{}, fmt.Errorf("workload: replay budget: trace exceeds %d dynamic instructions at record %d", MaxReplayInstr, idx)
		}
		prev = rec.Addr
		idx++
	}
	m := r.Meta()
	m.ReplayInstr = instr
	m.Stores = stores
	return m, nil
}
