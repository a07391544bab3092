// Command gengraph generates the synthetic datasets (or generic random
// graphs) in the library's text format, with summary statistics.
//
// Usage:
//
//	gengraph -kind dblp  -scale 0.1 -seed 1 -o dblp.graph
//	gengraph -kind yeast -seed 1 -o yeast.graph
//	gengraph -kind er -nodes 1000 -p 0.01 -o er.graph
//	gengraph -kind community -sizes 100,100,50 -pin 0.2 -pout 0.02
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	var (
		kind  = flag.String("kind", "dblp", "dblp | yeast | youtube | er | ba | community | grid")
		scale = flag.Float64("scale", 0.1, "scale for dblp/youtube")
		seed  = flag.Int64("seed", 1, "RNG seed")
		out   = flag.String("o", "-", "output file (- for stdout)")
		nodes = flag.Int("nodes", 1000, "nodes for er/ba/grid width")
		p     = flag.Float64("p", 0.01, "edge probability for er/community pin")
		pout  = flag.Float64("pout", 0.02, "cross-community probability")
		m     = flag.Int("m", 3, "links per node for ba / grid height")
		sizes = flag.String("sizes", "200,200,200", "community sizes for -kind community")
		stats = flag.Bool("stats", true, "print graph statistics to stderr")
	)
	flag.Parse()

	g, sets, err := build(*kind, *scale, *seed, *nodes, *p, *pout, *m, *sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, graph.ComputeStats(g).String())
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gengraph:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteText(w, g, sets...); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

func build(kind string, scale float64, seed int64, nodes int, p, pout float64, m int, sizes string) (*graph.Graph, []*graph.NodeSet, error) {
	switch kind {
	case "dblp":
		d, err := dataset.DBLP(dataset.DBLPConfig{Scale: scale, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return d.Graph, d.Sets, nil
	case "yeast":
		d, err := dataset.Yeast(seed)
		if err != nil {
			return nil, nil, err
		}
		return d.Graph, d.Sets, nil
	case "youtube":
		d, err := dataset.YouTube(dataset.YouTubeConfig{Scale: scale, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return d.Graph, d.Sets, nil
	case "er":
		g, err := graph.GenerateER(nodes, p, seed)
		return g, nil, err
	case "ba":
		g, err := graph.GeneratePreferential(nodes, m, seed)
		return g, nil, err
	case "grid":
		g, err := graph.GenerateGrid(nodes, m)
		return g, nil, err
	case "community":
		var ns []int
		for _, f := range strings.Split(sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, nil, fmt.Errorf("bad -sizes entry %q", f)
			}
			ns = append(ns, v)
		}
		g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
			Sizes: ns, PIn: p, POut: pout, Seed: seed, MinOutLink: 1,
		})
		return g, sets, err
	}
	return nil, nil, fmt.Errorf("unknown kind %q", kind)
}
