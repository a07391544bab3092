package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text format is line oriented:
//
//	# comment
//	graph <nodes> <directed|undirected>
//	node <id> <label...>            (optional)
//	edge <u> <v> <weight>
//	nodeset <name> <id> <id> ...    (optional, may repeat a name to extend it)
//
// It is intended for small fixtures and interchange.

// WriteText serializes g (and optional node sets) in the text format.
func WriteText(w io.Writer, g *Graph, sets ...*NodeSet) error {
	bw := bufio.NewWriter(w)
	dir := "directed"
	fmt.Fprintf(bw, "graph %d %s\n", g.NumNodes(), dir)
	if g.Labeled() {
		for u := 0; u < g.NumNodes(); u++ {
			if l := g.Label(NodeID(u)); l != "" {
				fmt.Fprintf(bw, "node %d %s\n", u, l)
			}
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		to, wts, _ := g.OutEdges(NodeID(u))
		for j := range to {
			fmt.Fprintf(bw, "edge %d %d %g\n", u, to[j], wts[j])
		}
	}
	for _, s := range sets {
		var sb strings.Builder
		sb.WriteString("nodeset ")
		sb.WriteString(s.Name)
		for _, id := range s.Nodes() {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(int(id)))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// A built graph costs about 40 bytes per declared node, whether or not any
// line names it. So a text may declare up to minTextNodes nodes freely, and
// beyond that one node per textBytesPerNode bytes of its length — about what
// its edge lines cost once built — and never more than int32 ids address.
// The check runs before the build, so a 15-byte "graph 10000000" never
// allocates its 400 MB of empty rows.
const (
	minTextNodes     = 1 << 16
	textBytesPerNode = 8
)

// ReadText parses the text format, returning the graph and any node sets in
// declaration order. A node count the text's length does not carry (see
// minTextNodes) is an error.
func ReadText(r io.Reader) (*Graph, []*NodeSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	setIDs := make(map[string][]NodeID)
	var setOrder []string
	lineNo, size := 0, 0
	for sc.Scan() {
		lineNo++
		size += len(sc.Bytes()) + 1
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if b != nil {
				return nil, nil, fmt.Errorf("graph text line %d: duplicate graph header", lineNo)
			}
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("graph text line %d: graph header needs a node count", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > math.MaxInt32 {
				return nil, nil, fmt.Errorf("graph text line %d: bad node count %q", lineNo, fields[1])
			}
			directed := true
			if len(fields) >= 3 && fields[2] == "undirected" {
				directed = false
			}
			b = NewBuilder(n, directed)
		case "node":
			if b == nil {
				return nil, nil, fmt.Errorf("graph text line %d: node before graph header", lineNo)
			}
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("graph text line %d: node needs id and label", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= b.NumNodes() {
				return nil, nil, fmt.Errorf("graph text line %d: bad node id %q", lineNo, fields[1])
			}
			b.SetLabel(NodeID(id), strings.Join(fields[2:], " "))
		case "edge":
			if b == nil {
				return nil, nil, fmt.Errorf("graph text line %d: edge before graph header", lineNo)
			}
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("graph text line %d: edge needs u v w", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, nil, fmt.Errorf("graph text line %d: malformed edge %q", lineNo, line)
			}
			if u < 0 || u >= b.NumNodes() || v < 0 || v >= b.NumNodes() {
				return nil, nil, fmt.Errorf("graph text line %d: edge (%d,%d) out of range", lineNo, u, v)
			}
			if w <= 0 {
				return nil, nil, fmt.Errorf("graph text line %d: edge weight must be positive, got %g", lineNo, w)
			}
			b.AddEdge(NodeID(u), NodeID(v), w)
		case "nodeset":
			if b == nil {
				return nil, nil, fmt.Errorf("graph text line %d: nodeset before graph header", lineNo)
			}
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("graph text line %d: nodeset needs a name", lineNo)
			}
			name := fields[1]
			if _, seen := setIDs[name]; !seen {
				setOrder = append(setOrder, name)
			}
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil || id < 0 || id >= b.NumNodes() {
					return nil, nil, fmt.Errorf("graph text line %d: bad nodeset member %q", lineNo, f)
				}
				setIDs[name] = append(setIDs[name], NodeID(id))
			}
		default:
			return nil, nil, fmt.Errorf("graph text line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, fmt.Errorf("graph text: missing graph header")
	}
	if n := b.NumNodes(); n > minTextNodes && n > size/textBytesPerNode {
		return nil, nil, fmt.Errorf("graph text: %d nodes declared by %d bytes of text, at most %d allowed",
			n, size, max(minTextNodes, size/textBytesPerNode))
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	sets := make([]*NodeSet, 0, len(setOrder))
	for _, name := range setOrder {
		sets = append(sets, NewNodeSet(name, setIDs[name]))
	}
	return g, sets, nil
}
