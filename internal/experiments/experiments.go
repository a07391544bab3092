// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the synthetic dataset substitutes, plus the ablation
// studies called out in DESIGN.md §8. Each experiment is a function from a
// sizing Config to a Table of the same rows/series the paper reports; the
// cmd/experiments tool prints them and bench_test.go wraps them in
// testing.B benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
)

// Table is one regenerated table or figure: a header, rows of rendered
// cells, and free-form notes (e.g. which runs were skipped for budget).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Config sizes the experiment suite. Quick mode (the default for benchmarks
// and CI) scales the graphs and node sets down; Full mode approaches the
// paper's configuration and is what EXPERIMENTS.md records.
type Config struct {
	Seed int64

	// DBLPScale and YouTubeScale scale those synthetic graphs (1.0 ≈ 20k and
	// 50k nodes respectively; the Yeast graph is always full size).
	DBLPScale    float64
	YouTubeScale float64

	// SetSize is the number of top-degree nodes drawn per node set for the
	// join workloads (the paper used 100).
	SetSize int

	// K and M are the paper's defaults (both 50).
	K, M int

	// Epsilon sets the DHT accuracy target; Lemma 1 turns it into d.
	Epsilon float64

	// Lambda is the default DHTλ decay factor (paper: 0.2).
	Lambda float64

	// MaxN caps the n sweep of Fig 7(a)/8(a).
	MaxN int

	// RunNL / RunAP control whether the expensive baselines run at their
	// infeasible sizes (they are always skipped where the paper also gave
	// up; these flags gate the borderline cases).
	RunNL, RunAP bool
}

// Quick returns the reduced configuration used by benchmarks.
func Quick() Config {
	return Config{
		Seed:         1,
		DBLPScale:    0.04,
		YouTubeScale: 0.04,
		SetSize:      30,
		K:            20,
		M:            20,
		Epsilon:      1e-6,
		Lambda:       0.2,
		MaxN:         4,
		RunNL:        true,
		RunAP:        true,
	}
}

// Full returns the paper-scale configuration used by cmd/experiments.
func Full() Config {
	return Config{
		Seed:         1,
		DBLPScale:    0.25,
		YouTubeScale: 0.5,
		SetSize:      100,
		K:            50,
		M:            50,
		Epsilon:      1e-6,
		Lambda:       0.2,
		MaxN:         7,
		RunNL:        true,
		RunAP:        true,
	}
}

// Env lazily materializes the datasets so one CLI invocation can run many
// experiments without regenerating graphs.
type Env struct {
	Cfg     Config
	dblp    *dataset.Dataset
	yeast   *dataset.Dataset
	youtube *dataset.Dataset
}

// NewEnv wraps a config.
func NewEnv(cfg Config) *Env { return &Env{Cfg: cfg} }

// Params returns the default DHTλ parameters of the config.
func (e *Env) Params() dht.Params { return dht.DHTLambda(e.Cfg.Lambda) }

// D returns the Lemma-1 depth for the default parameters.
func (e *Env) D() int { return e.Params().StepsForEpsilon(e.Cfg.Epsilon) }

// DBLP returns the (cached) synthetic DBLP dataset.
func (e *Env) DBLP() (*dataset.Dataset, error) {
	if e.dblp == nil {
		d, err := dataset.DBLP(dataset.DBLPConfig{Scale: e.Cfg.DBLPScale, Seed: e.Cfg.Seed})
		if err != nil {
			return nil, err
		}
		e.dblp = d
	}
	return e.dblp, nil
}

// Yeast returns the (cached) synthetic Yeast dataset.
func (e *Env) Yeast() (*dataset.Dataset, error) {
	if e.yeast == nil {
		d, err := dataset.Yeast(e.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		e.yeast = d
	}
	return e.yeast, nil
}

// YouTube returns the (cached) synthetic YouTube dataset.
func (e *Env) YouTube() (*dataset.Dataset, error) {
	if e.youtube == nil {
		d, err := dataset.YouTube(dataset.YouTubeConfig{Scale: e.Cfg.YouTubeScale, Seed: e.Cfg.Seed})
		if err != nil {
			return nil, err
		}
		e.youtube = d
	}
	return e.youtube, nil
}

// sets draws the top-degree subsets used as join node sets.
func (e *Env) sets(d *dataset.Dataset, names ...string) ([]*graph.NodeSet, error) {
	out := make([]*graph.NodeSet, len(names))
	for i, n := range names {
		s, err := d.TopByDegree(n, e.Cfg.SetSize)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// yeastJoinSets returns the n largest Yeast classes, trimmed to SetSize.
func (e *Env) yeastJoinSets(n int) ([]*graph.NodeSet, error) {
	d, err := e.Yeast()
	if err != nil {
		return nil, err
	}
	bySize := append([]*graph.NodeSet(nil), d.Sets...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].Len() > bySize[j].Len() })
	if n > len(bySize) {
		return nil, fmt.Errorf("experiments: want %d Yeast sets, have %d", n, len(bySize))
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = bySize[i].Name
	}
	return e.sets(d, names...)
}

// dblpJoinSets returns the n largest DBLP areas, trimmed to SetSize.
func (e *Env) dblpJoinSets(n int) ([]*graph.NodeSet, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	if n > len(d.Sets) {
		return nil, fmt.Errorf("experiments: want %d DBLP sets, have %d", n, len(d.Sets))
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = d.Sets[i].Name
	}
	return e.sets(d, names...)
}

// timeIt measures one run.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// fmtDur renders a duration with ms precision for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(*Env) (*Table, error)
}

// All returns the registry of every experiment, in paper order.
func All() []Runner {
	return []Runner{
		{"table3", "Top-5 3-way join on DBLP (triangle and chain)", Table3},
		{"fig6a", "Link prediction ROC curves (three datasets)", Fig6a},
		{"fig6b", "AUC vs λ on Yeast (DHTλ and DHTe)", Fig6b},
		{"table4", "AUC for link- and 3-clique-prediction", Table4},
		{"fig7a", "Yeast n-way join: running time vs n", Fig7a},
		{"fig7b", "Yeast n-way join: running time vs |EQ|", Fig7b},
		{"fig7c", "Yeast n-way join: running time vs k", Fig7c},
		{"fig7d", "Yeast n-way join: running time vs m", Fig7d},
		{"fig8a", "DBLP n-way join: running time vs n", Fig8a},
		{"fig8b", "DBLP n-way join: running time vs |EQ|", Fig8b},
		{"fig8c", "DBLP n-way join: running time vs k", Fig8c},
		{"fig8d", "DBLP n-way join: running time vs m", Fig8d},
		{"fig9a", "Yeast 2-way join: all five algorithms", Fig9a},
		{"fig9b", "Yeast 2-way join: running time vs ε", Fig9b},
		{"fig9c", "Yeast 2-way join: running time vs λ", Fig9c},
		{"fig9d", "Yeast 2-way join: running time vs k", Fig9d},
		{"fig10a", "DBLP 2-way join: running time vs λ", Fig10a},
		{"fig10b", "DBLP 2-way join: nodes pruned per iteration", Fig10b},
		{"ablation-corner", "Ablation: PBRJ corner bound on vs off", AblationCornerBound},
		{"ablation-incremental", "Ablation: incremental F reuse vs re-join", AblationIncremental},
		{"ablation-schedule", "Ablation: doubling vs linear deepening schedule", AblationSchedule},
		{"ext-ppr", "Extension: joins over Personalized PageRank", ExtensionPPR},
		{"ext-simrank", "Extension: joins over SimRank via JoinLists", ExtensionSimRank},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
