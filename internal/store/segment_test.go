package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testGraph builds a small deterministic labeled graph with two node sets.
func testGraph(t testing.TB) (*graph.Graph, []*graph.NodeSet) {
	t.Helper()
	b := graph.NewBuilder(6, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 3)
	b.AddEdge(2, 4, 0.5)
	b.AddEdge(3, 4, 1.25)
	b.AddEdge(4, 5, 2)
	b.AddEdge(5, 0, 1)
	for i, l := range []string{"a", "b", "c", "d", "e", "f"} {
		b.SetLabel(graph.NodeID(i), l)
	}
	g := b.Build()
	sets := []*graph.NodeSet{
		graph.NewNodeSet("U", []graph.NodeID{0, 1, 2}),
		graph.NewNodeSet("D", []graph.NodeID{3, 4, 5}),
	}
	return g, sets
}

// graphEqual reports whether two graphs have bit-identical CSR arrays and
// labels — the store's definition of "the same graph" (identical CSR implies
// bit-identical joins).
func graphEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	ai, at, aw := a.CSR()
	bi, bt, bw := b.CSR()
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	for i := range at {
		if at[i] != bt[i] || aw[i] != bw[i] {
			return false
		}
	}
	al, bl := a.RawLabels(), b.RawLabels()
	if (al == nil) != (bl == nil) {
		return false
	}
	for i := range al {
		if al[i] != bl[i] {
			return false
		}
	}
	return true
}

func setsEqual(a, b []*graph.NodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Len() != b[i].Len() {
			return false
		}
		an, bn := a[i].Nodes(), b[i].Nodes()
		for j := range an {
			if an[j] != bn[j] {
				return false
			}
		}
	}
	return true
}

func TestSegmentRoundtrip(t *testing.T) {
	g, sets := testGraph(t)
	want := g.Stats() // force computation so the encoded segment carries it
	b := encodeSegment("yeast", 7, g, sets)
	sd, err := decodeSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if sd.name != "yeast" || sd.gen != 7 {
		t.Fatalf("decoded (%q, gen %d), want (yeast, 7)", sd.name, sd.gen)
	}
	if !graphEqual(g, sd.g) {
		t.Fatal("decoded graph differs from original")
	}
	if !setsEqual(sets, sd.sets) {
		t.Fatal("decoded sets differ from original")
	}
	// The persisted Stats must come back primed: the decoded graph serves the
	// planner without rescanning.
	if got := sd.g.Stats(); got != want {
		t.Fatalf("decoded stats = %+v, want %+v", got, want)
	}
}

func TestSegmentRoundtripUnlabeledNoSets(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	sd, err := decodeSegment(encodeSegment("plain", 1, g, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sd.g.Labeled() || len(sd.sets) != 0 {
		t.Fatalf("expected unlabeled graph with no sets, got labeled=%v sets=%d",
			sd.g.Labeled(), len(sd.sets))
	}
	if !graphEqual(g, sd.g) {
		t.Fatal("decoded graph differs from original")
	}
}

// TestSegmentGoldenV1 pins the v1 on-disk encoding byte for byte. If this
// test fails, the format changed: either revert the change, or bump
// segVersion and add a new golden — never reuse v1 for different bytes, or
// old files would decode as garbage (or new files fail on old builds)
// without tripping the version gate.
func TestSegmentGoldenV1(t *testing.T) {
	g, sets := testGraph(t)
	got := hex.EncodeToString(encodeSegment("golden", 3, g, sets))
	path := filepath.Join("testdata", "segment_v1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/store -run Golden -update)", err)
	}
	if got != string(bytes.TrimSpace(want)) {
		t.Errorf("segment encoding drifted from the v1 golden file;\n got %s\nwant %s", got, bytes.TrimSpace(want))
	}
	// Pin the header fields explicitly, independent of the hex blob.
	raw, _ := hex.DecodeString(got)
	if string(raw[0:4]) != segMagic {
		t.Errorf("magic = %q, want %q", raw[0:4], segMagic)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	if pl := binary.LittleEndian.Uint64(raw[8:16]); pl != uint64(len(raw)-segHeaderLen) {
		t.Errorf("payload length = %d, want %d", pl, len(raw)-segHeaderLen)
	}
}

// reseal recomputes the header CRC after a deliberate header edit, so tests
// can distinguish "intact but incompatible" from "corrupt".
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[20:24], crc32.Checksum(b[:20], castagnoli))
	return b
}

func TestSegmentVersionGate(t *testing.T) {
	g, sets := testGraph(t)
	valid := encodeSegment("g", 1, g, sets)

	futureVer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(futureVer[4:6], segVersion+1)
	reseal(futureVer)

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	reseal(badMagic)

	hugeN := sealedSegment(hugeNPayload())

	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"future version", futureVer, ErrIncompatibleSegment},
		{"bad magic", badMagic, ErrIncompatibleSegment},
		{"truncated header", valid[:segHeaderLen-4], ErrIncompatibleSegment},
		{"empty file", nil, ErrIncompatibleSegment},
		{"header crc mismatch", flipByte(valid, 9), ErrCorruptSegment},
		{"payload crc mismatch", flipByte(valid, segHeaderLen+10), ErrCorruptSegment},
		{"truncated payload", valid[:len(valid)-3], ErrCorruptSegment},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), ErrCorruptSegment},
		// 72 checksummed bytes claiming 2³¹ nodes: the decoder once sized
		// outIndex by that count and died allocating it.
		{"n = 2³¹ in 72 bytes", hugeN, ErrCorruptSegment},
	} {
		_, err := decodeSegment(tc.b)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		// The two sentinels are mutually exclusive: recovery falls back on
		// corruption but must refuse to scrub incompatible files.
		other := ErrCorruptSegment
		if tc.want == ErrCorruptSegment {
			other = ErrIncompatibleSegment
		}
		if errors.Is(err, other) {
			t.Errorf("%s: err %v matches both sentinels", tc.name, err)
		}
	}
}

// sealedSegment wraps a payload in a valid v1 header, checksums included.
func sealedSegment(payload []byte) []byte {
	return append(appendSegmentHeader(nil, payload), payload...)
}

// hugeNPayload is a 48-byte payload: an empty name, generation 1, n = 2³¹,
// m = 0, and 20 zero bytes where 8·(2³¹+1) bytes of outIndex should be.
func hugeNPayload() []byte {
	p := appendString(nil, "")
	p = binary.LittleEndian.AppendUint64(p, 1)
	p = binary.LittleEndian.AppendUint64(p, 1<<31)
	p = binary.LittleEndian.AppendUint64(p, 0)
	return append(p, make([]byte, 20)...)
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// TestSegmentDetectsEveryByteFlip exercises the checksum coverage property:
// no single corrupted byte anywhere in a segment file may decode silently.
func TestSegmentDetectsEveryByteFlip(t *testing.T) {
	g, sets := testGraph(t)
	valid := encodeSegment("g", 1, g, sets)
	if _, err := decodeSegment(valid); err != nil {
		t.Fatal(err)
	}
	for i := range valid {
		if _, err := decodeSegment(flipByte(valid, i)); err == nil {
			t.Fatalf("flipping byte %d of %d decoded cleanly", i, len(valid))
		}
	}
}

func TestWALHeaderRoundtrip(t *testing.T) {
	h := encodeWALHeader(42)
	gen, err := parseWALHeader(h)
	if err != nil || gen != 42 {
		t.Fatalf("parse = (%d, %v), want (42, nil)", gen, err)
	}

	future := append([]byte(nil), h...)
	binary.LittleEndian.PutUint16(future[4:6], walVersion+1)
	binary.LittleEndian.PutUint32(future[16:20], crc32.Checksum(future[:16], castagnoli))
	if _, err := parseWALHeader(future); !errors.Is(err, ErrIncompatibleSegment) {
		t.Errorf("future wal version: err = %v, want ErrIncompatibleSegment", err)
	}
	if _, err := parseWALHeader(flipByte(h, 9)); !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("flipped wal header byte: err = %v, want ErrCorruptSegment", err)
	}
	if _, err := parseWALHeader(h[:10]); !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("truncated wal header: err = %v, want ErrCorruptSegment", err)
	}
}

func TestWALScanRecordsAndTornTail(t *testing.T) {
	adds1 := []graph.Edge{{U: 1, V: 2, W: 0.5}}
	dels2 := [][2]graph.NodeID{{0, 3}}
	img := encodeWALHeader(5)
	img = append(img, encodeWALRecord(adds1, nil)...)
	boundary := int64(len(img))
	img = append(img, encodeWALRecord(nil, dels2)...)

	baseGen, recs, validLen, torn, err := scanWAL(img)
	if err != nil || torn {
		t.Fatalf("clean scan: torn=%v err=%v", torn, err)
	}
	if baseGen != 5 || len(recs) != 2 || validLen != int64(len(img)) {
		t.Fatalf("scan = (base %d, %d recs, validLen %d)", baseGen, len(recs), validLen)
	}
	if len(recs[0].adds) != 1 || recs[0].adds[0] != (graph.Edge{U: 1, V: 2, W: 0.5}) {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if len(recs[1].dels) != 1 || recs[1].dels[0] != [2]graph.NodeID{0, 3} {
		t.Fatalf("record 1 = %+v", recs[1])
	}

	// Every possible truncation of the second record is a torn tail that
	// yields exactly the first record; a corrupted byte inside it likewise.
	for cut := boundary + 1; cut < int64(len(img)); cut++ {
		_, recs, validLen, torn, err := scanWAL(img[:cut])
		if err != nil || !torn || len(recs) != 1 || validLen != boundary {
			t.Fatalf("cut %d: recs=%d validLen=%d torn=%v err=%v", cut, len(recs), validLen, torn, err)
		}
	}
	for i := boundary; i < int64(len(img)); i++ {
		_, recs, validLen, torn, err := scanWAL(flipByte(img, int(i)))
		if err != nil || !torn || len(recs) != 1 || validLen != boundary {
			t.Fatalf("flip %d: recs=%d validLen=%d torn=%v err=%v", i, len(recs), validLen, torn, err)
		}
	}

	// A record boundary cut is not torn — it is simply a shorter valid WAL.
	_, recs, validLen, torn, err = scanWAL(img[:boundary])
	if err != nil || torn || len(recs) != 1 || validLen != boundary {
		t.Fatalf("boundary cut: recs=%d validLen=%d torn=%v err=%v", len(recs), validLen, torn, err)
	}
}

func TestWALRejectsImplausibleLength(t *testing.T) {
	img := encodeWALHeader(1)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], maxWALRecord+1)
	img = append(img, frame[:]...)
	_, recs, validLen, torn, err := scanWAL(img)
	if err != nil || !torn || len(recs) != 0 || validLen != walHeaderLen {
		t.Fatalf("oversized length prefix: recs=%d validLen=%d torn=%v err=%v", len(recs), validLen, torn, err)
	}
}
