// Package store is the crash-safe persistence layer under the serving
// registry (internal/service): each named graph is durably represented by a
// checksummed snapshot segment (the full CSR, node sets, labels, and cached
// stats at one generation) plus an append-only edge WAL of the edits applied
// since that snapshot. Segments are written crash-atomically (temp file →
// fsync → rename → directory fsync) and every byte that matters is covered
// by a CRC32-C, so startup recovery can distinguish "torn tail, truncate and
// continue" from "corrupt segment, fall back a generation" — kill -9 at any
// instant loses at most the single operation that was never acknowledged.
//
// All I/O goes through fault.FS, so the crash-matrix tests drive the exact
// production code paths over an injected, crashable filesystem.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/graph"
)

// Segment format v1. A segment file is:
//
//	offset size
//	0      4    magic "NJSG"
//	4      2    format version (little-endian; this file documents v1)
//	6      2    flags (0 in v1)
//	8      8    payload length in bytes
//	16     4    CRC32-C of the payload
//	20     4    CRC32-C of header bytes [0,20)
//	24     …    payload
//
// The header checksum makes "unreadable header" and "header from the future"
// distinguishable: a mismatched header CRC or bad magic is corruption, while
// a valid header with version > 1 is an incompatible-but-intact segment
// (ErrIncompatibleSegment — upgrade the binary, don't scrub the file).
//
// The v1 payload, all little-endian, fixed-width arrays:
//
//	u32 len + bytes   graph name (source of truth; filenames are addressing)
//	u64               generation
//	u64 n             node count
//	u64 m             arc count
//	(n+1) × i64       outIndex
//	m × i32           outTo
//	m × f64           outW
//	u8                hasLabels; if 1: n × (u32 len + bytes)
//	u32 nsets         node sets: per set u32 len + name, u32 count, count × i32
//	u8                hasStats; if 1: the cached graph.Stats (12 fixed fields)
const (
	segMagic     = "NJSG"
	segVersion   = 1
	segHeaderLen = 24

	walMagic     = "NJWL"
	walVersion   = 1
	walHeaderLen = 20
)

var (
	// ErrIncompatibleSegment reports a structurally intact file this build
	// cannot read: wrong magic, truncated header, or a future format version.
	// It is deliberately distinct from corruption — recovery must not treat a
	// file written by a newer build as garbage to fall back over.
	ErrIncompatibleSegment = errors.New("store: incompatible segment")

	// ErrCorruptSegment reports checksum or structure violations in a
	// version-compatible file; recovery falls back to the previous
	// generation when it sees this.
	ErrCorruptSegment = errors.New("store: corrupt segment")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentData is the decoded form of one snapshot.
type segmentData struct {
	name string
	gen  uint64
	g    *graph.Graph
	sets []*graph.NodeSet
}

// appendSegmentHeader appends the 24-byte v1 header for a payload.
func appendSegmentHeader(dst, payload []byte) []byte {
	var h [segHeaderLen]byte
	copy(h[0:4], segMagic)
	binary.LittleEndian.PutUint16(h[4:6], segVersion)
	binary.LittleEndian.PutUint16(h[6:8], 0)
	binary.LittleEndian.PutUint64(h[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(h[16:20], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(h[20:24], crc32.Checksum(h[:20], castagnoli))
	return append(dst, h[:]...)
}

// parseSegmentHeader validates a header and returns the payload length and
// expected payload CRC.
func parseSegmentHeader(h []byte) (payloadLen uint64, payloadCRC uint32, err error) {
	if len(h) < segHeaderLen {
		return 0, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrIncompatibleSegment, len(h))
	}
	if binary.LittleEndian.Uint32(h[20:24]) != crc32.Checksum(h[:20], castagnoli) {
		return 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrCorruptSegment)
	}
	if string(h[0:4]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrIncompatibleSegment, h[0:4])
	}
	if v := binary.LittleEndian.Uint16(h[4:6]); v != segVersion {
		return 0, 0, fmt.Errorf("%w: segment version %d, this build reads v%d", ErrIncompatibleSegment, v, segVersion)
	}
	return binary.LittleEndian.Uint64(h[8:16]), binary.LittleEndian.Uint32(h[16:20]), nil
}

// encodeSegment serializes one graph snapshot (header + payload).
func encodeSegment(name string, gen uint64, g *graph.Graph, sets []*graph.NodeSet) []byte {
	outIndex, outTo, outW := g.CSR()
	n, m := g.NumNodes(), g.NumEdges()
	labels := g.RawLabels()

	size := 4 + len(name) + 8 + 8 + 8 + 8*(n+1) + 4*m + 8*m + 1 + 4 + 1 + statsLen
	if labels != nil {
		for _, l := range labels {
			size += 4 + len(l)
		}
	}
	for _, s := range sets {
		size += 4 + len(s.Name) + 4 + 4*s.Len()
	}
	p := make([]byte, 0, size)

	p = appendString(p, name)
	p = binary.LittleEndian.AppendUint64(p, gen)
	p = binary.LittleEndian.AppendUint64(p, uint64(n))
	p = binary.LittleEndian.AppendUint64(p, uint64(m))
	for _, v := range outIndex {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	for _, v := range outTo {
		p = binary.LittleEndian.AppendUint32(p, uint32(v))
	}
	for _, v := range outW {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	if labels == nil {
		p = append(p, 0)
	} else {
		p = append(p, 1)
		for _, l := range labels {
			p = appendString(p, l)
		}
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(sets)))
	for _, s := range sets {
		p = appendString(p, s.Name)
		ids := s.Nodes()
		p = binary.LittleEndian.AppendUint32(p, uint32(len(ids)))
		for _, id := range ids {
			p = binary.LittleEndian.AppendUint32(p, uint32(id))
		}
	}
	p = append(p, 1)
	p = appendStats(p, g.Stats())

	return append(appendSegmentHeader(make([]byte, 0, segHeaderLen+len(p)), p), p...)
}

// decodeSegment parses a full segment file (header + payload), validating
// both checksums and reconstructing the graph sort-free via NewFromCSR.
func decodeSegment(b []byte) (*segmentData, error) {
	payloadLen, payloadCRC, err := parseSegmentHeader(b)
	if err != nil {
		return nil, err
	}
	body := b[segHeaderLen:]
	if uint64(len(body)) != payloadLen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorruptSegment, len(body), payloadLen)
	}
	if crc32.Checksum(body, castagnoli) != payloadCRC {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorruptSegment)
	}
	d := &decoder{b: body}
	sd := &segmentData{}
	sd.name = d.str()
	sd.gen = d.u64()
	n := d.u64()
	m := d.u64()
	// Every count read from the file is checked against the bytes left to
	// hold its items before anything is sized by it: outIndex needs 8·(n+1)
	// bytes and the arcs 12·m.
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, d.err)
	}
	if n > 1<<31 || !d.holds(m, 12) || 8*(n+1)+12*m > uint64(d.left()) {
		return nil, fmt.Errorf("%w: implausible sizes n=%d m=%d", ErrCorruptSegment, n, m)
	}
	outIndex := make([]int64, 0, n+1)
	for i := uint64(0); i <= n && d.err == nil; i++ {
		outIndex = append(outIndex, int64(d.u64()))
	}
	outTo := make([]graph.NodeID, 0, m)
	for i := uint64(0); i < m && d.err == nil; i++ {
		outTo = append(outTo, graph.NodeID(d.u32()))
	}
	outW := make([]float64, 0, m)
	for i := uint64(0); i < m && d.err == nil; i++ {
		outW = append(outW, math.Float64frombits(d.u64()))
	}
	var labels []string
	if d.u8() == 1 {
		if d.err == nil && !d.holds(n, 4) {
			return nil, fmt.Errorf("%w: implausible label count %d", ErrCorruptSegment, n)
		}
		labels = make([]string, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			labels = append(labels, d.str())
		}
	}
	nsets := d.u32()
	if d.err == nil && (uint64(nsets) > n+1 || !d.holds(uint64(nsets), 8)) {
		return nil, fmt.Errorf("%w: implausible set count %d", ErrCorruptSegment, nsets)
	}
	for i := uint32(0); i < nsets && d.err == nil; i++ {
		setName := d.str()
		count := d.u32()
		if d.err == nil && !d.holds(uint64(count), 4) {
			return nil, fmt.Errorf("%w: implausible id count %d in set %q", ErrCorruptSegment, count, setName)
		}
		ids := make([]graph.NodeID, 0, count)
		for j := uint32(0); j < count && d.err == nil; j++ {
			ids = append(ids, graph.NodeID(d.u32()))
		}
		sd.sets = append(sd.sets, graph.NewNodeSet(setName, ids))
	}
	var stats graph.Stats
	hasStats := d.u8() == 1
	if hasStats {
		stats = d.stats()
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, d.err)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptSegment, len(body)-d.off)
	}
	g, err := graph.NewFromCSR(int(n), outIndex, outTo, outW, labels)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	if hasStats {
		g.PrimeStats(stats)
	}
	for _, s := range sd.sets {
		if err := s.Validate(g); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
		}
	}
	sd.g = g
	return sd, nil
}

// statsLen is the fixed encoded size of graph.Stats (12 × 8 bytes).
const statsLen = 12 * 8

func appendStats(p []byte, s graph.Stats) []byte {
	for _, v := range []int64{int64(s.Nodes), int64(s.Arcs), int64(s.MinOutDeg), int64(s.MaxOutDeg)} {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(s.MeanOutDeg))
	for _, v := range []int64{int64(s.MedianOutDeg), int64(s.Sinks), int64(s.Sources), int64(s.SelfLoops)} {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(s.MeanWeight))
	for _, v := range []int64{int64(s.Components), int64(s.LargestComp)} {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	return p
}

func appendString(p []byte, s string) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
	return append(p, s...)
}

// decoder is a bounds-checked little-endian reader; the first violation
// sticks in err and every later read returns zero.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// left is the number of unread bytes.
func (d *decoder) left() int { return len(d.b) - d.off }

// holds reports whether the unread bytes can hold count items of size bytes
// each; a count read from the input must pass it before it sizes anything.
func (d *decoder) holds(count, size uint64) bool { return count <= uint64(d.left())/size }

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err == nil && !d.holds(uint64(n), 1) {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) stats() graph.Stats {
	var s graph.Stats
	s.Nodes = int(int64(d.u64()))
	s.Arcs = int(int64(d.u64()))
	s.MinOutDeg = int(int64(d.u64()))
	s.MaxOutDeg = int(int64(d.u64()))
	s.MeanOutDeg = math.Float64frombits(d.u64())
	s.MedianOutDeg = int(int64(d.u64()))
	s.Sinks = int(int64(d.u64()))
	s.Sources = int(int64(d.u64()))
	s.SelfLoops = int(int64(d.u64()))
	s.MeanWeight = math.Float64frombits(d.u64())
	s.Components = int(int64(d.u64()))
	s.LargestComp = int(int64(d.u64()))
	return s
}
