package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText checks that arbitrary input never panics the parser, and that
// everything it accepts survives a write/read round trip.
func FuzzReadText(f *testing.F) {
	f.Add("graph 3\nedge 0 1 1\nedge 1 2 2.5\nnodeset S 0 2\n")
	f.Add("graph 2 undirected\nnode 0 alpha\nedge 0 1 1\n")
	f.Add("# comment\n\ngraph 1\n")
	f.Add("graph 0\n")
	f.Add("garbage\n")
	f.Add("graph 2\nedge 0 1 -1\n")
	// Node counts past what the text carries, or past int32 ids, are
	// rejected before the graph is built.
	f.Add("graph 10000000\n")
	f.Add("graph 2147483648\n")
	f.Add("graph 65537\nedge 0 65536 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, sets, err := ReadText(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g, sets...); err != nil {
			t.Fatalf("WriteText on accepted graph: %v", err)
		}
		g2, sets2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || len(sets2) != len(sets) {
			t.Fatalf("round trip changed shape: (%d,%d,%d) vs (%d,%d,%d)",
				g.NumNodes(), g.NumEdges(), len(sets), g2.NumNodes(), g2.NumEdges(), len(sets2))
		}
	})
}
