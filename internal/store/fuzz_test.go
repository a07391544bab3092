package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzDecodeSegment feeds arbitrary payloads to the segment decoder. Each
// payload is wrapped in a valid header, checksums included, so the CRC does
// not shield the parser: every input must decode to a graph (and sets) that
// pass Validate, or fail with ErrCorruptSegment — never panic, and never
// allocate by a count the payload cannot back.
func FuzzDecodeSegment(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "segment_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	seg, err := hex.DecodeString(string(bytes.TrimSpace(golden)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg[segHeaderLen:])
	f.Add(hugeNPayload())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		sd, err := decodeSegment(sealedSegment(payload))
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if err := sd.g.Validate(); err != nil {
			t.Fatalf("decoded graph fails Validate: %v", err)
		}
		for _, s := range sd.sets {
			if err := s.Validate(sd.g); err != nil {
				t.Fatalf("decoded set fails Validate: %v", err)
			}
		}
	})
}

// FuzzScanWAL feeds arbitrary bytes to the WAL scanner behind a valid header,
// twice: as raw record frames (exercising the length prefix and torn-tail
// rules) and framed as one checksummed record body (so the CRC does not
// shield the body decoder). The scan must not panic and validLen must mark a
// prefix of the image; every record must either be refused by ApplyEdits
// (recovery cuts the WAL there) or replay onto a small graph as one that
// passes Validate.
func FuzzScanWAL(f *testing.F) {
	f.Add(encodeWALRecord([]graph.Edge{{U: 1, V: 2, W: 0.5}}, nil))
	f.Add(encodeWALRecord(nil, [][2]graph.NodeID{{0, 3}}))
	f.Add(append(encodeWALRecord([]graph.Edge{{U: 0, V: 5, W: 1}, {U: 6, V: 6, W: 2}}, [][2]graph.NodeID{{0, 1}}),
		encodeWALRecord([]graph.Edge{{U: 2, V: 2, W: 1e308}}, nil)...))
	base, _ := testGraph(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(data, castagnoli))
		for _, img := range [][]byte{
			append(encodeWALHeader(1), data...),
			append(encodeWALHeader(1), append(framed, data...)...),
		} {
			_, recs, validLen, _, err := scanWAL(img)
			if err != nil {
				t.Fatalf("scan behind a valid header failed: %v", err)
			}
			if validLen < walHeaderLen || validLen > int64(len(img)) {
				t.Fatalf("validLen %d outside [%d, %d]", validLen, walHeaderLen, len(img))
			}
			for _, r := range recs {
				if !replayable(r) {
					continue
				}
				g, err := graph.ApplyEdits(base, r.adds, r.dels)
				if err != nil {
					continue // inapplicable: recovery cuts the WAL here
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("replayed graph fails Validate: %v", err)
				}
			}
		}
	})
}

// replayable reports whether a record's ids are small enough to replay in a
// test: an added arc grows the graph to its endpoint, so an id near 2³¹ asks
// for a 2³¹-node graph — the documented meaning of such an edit, and nothing
// the decoder is checked for here.
func replayable(r walRecord) bool {
	for _, e := range r.adds {
		if e.U >= 1<<12 || e.V >= 1<<12 {
			return false
		}
	}
	return true
}
