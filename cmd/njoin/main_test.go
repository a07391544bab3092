package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dhtjoin"
	"repro/internal/graph"
	"repro/internal/service"
)

// TestLambdaAgreement: "lambda" means the named measure's own decay number
// on every front end. The wire's {"measure":"ppr","lambda":0.3}, njoin's
// -measure ppr -lambda 0.3 and Options{MeasureName: "ppr", Params: PPR(0.3)}
// all resolve through measure.Resolve and return the same ranking; the
// retired ppr flag is rejected everywhere with a pointer at "measure".
func TestLambdaAgreement(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{30, 30, 30}, PIn: 0.15, POut: 0.05, Seed: 11, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	want, err := dhtjoin.TopK(g, dhtjoin.Chain(sets...), k,
		&dhtjoin.Options{MeasureName: "ppr", Params: dhtjoin.PPR(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != k {
		t.Fatalf("reference returned %d of %d answers", len(want), k)
	}
	// Guard the test itself: 0.3 is neither measure's default.
	other, err := dhtjoin.TopK(g, dhtjoin.Chain(sets...), k, &dhtjoin.Options{MeasureName: "ppr"})
	if err != nil {
		t.Fatal(err)
	}
	if other[0].Score == want[0].Score {
		t.Fatal("PPR(0.3) and the ppr default score alike; the test cannot tell them apart")
	}

	// The wire.
	svc := service.New(service.Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/joinN", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	names := []string{sets[0].Name, sets[1].Name, sets[2].Name}
	req := fmt.Sprintf(`{"graph":"g","sets":[{"set":%q},{"set":%q},{"set":%q}],"k":%d,"options":{"measure":"ppr",%%s}}`,
		names[0], names[1], names[2], k)
	code, body := post(fmt.Sprintf(req, `"lambda":0.3`))
	if code != http.StatusOK {
		t.Fatalf("wire join: %d %s", code, body)
	}
	var out struct {
		Answers []struct {
			Nodes []graph.NodeID `json:"nodes"`
			Score float64        `json:"score"`
		} `json:"answers"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != k {
		t.Fatalf("wire returned %d of %d answers", len(out.Answers), k)
	}
	for i, a := range out.Answers {
		if a.Score != want[i].Score || fmt.Sprint(a.Nodes) != fmt.Sprint(want[i].Nodes) {
			t.Fatalf("wire rank %d: %v %v, want %v %v", i, a.Nodes, a.Score, want[i].Nodes, want[i].Score)
		}
	}

	// njoin: it prints scores at six decimals, so agreement is on the
	// printed ranking plus the resolved parameters it reports.
	path := filepath.Join(t.TempDir(), "g.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteText(f, g, sets...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{"-graph", path, "-sets", strings.Join(names, ","), "-k", fmt.Sprint(k), "-measure", "ppr"}
	var stdout, stderr bytes.Buffer
	if err := run(append(args, "-lambda", "0.3"), &stdout, &stderr); err != nil {
		t.Fatalf("njoin: %v\n%s", err, stderr.String())
	}
	var wantOut strings.Builder
	for i, a := range want {
		fmt.Fprintf(&wantOut, "%3d  %s\n", i+1, a.Format(g))
	}
	if stdout.String() != wantOut.String() {
		t.Fatalf("njoin printed\n%swant\n%s", stdout.String(), wantOut.String())
	}
	if wantParams := dhtjoin.PPR(0.3).String(); !strings.Contains(stderr.String(), wantParams) {
		t.Fatalf("njoin resolved %q, want params %s", stderr.String(), wantParams)
	}

	// The retired flag, in each of its spellings.
	if code, body := post(fmt.Sprintf(req, `"ppr":true`)); code != http.StatusBadRequest || !strings.Contains(body, "measure") {
		t.Fatalf(`wire "ppr":true: %d %s, want a 400 naming "measure"`, code, body)
	}
	resp, err := http.Get(srv.URL + "/score?graph=g&u=0&v=1&ppr=true")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "measure") {
		t.Fatalf(`?ppr=true: %d %s, want a 400 naming "measure"`, resp.StatusCode, buf.String())
	}
	stderr.Reset()
	if err := run(append(args, "-ppr"), &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-measure ppr") {
		t.Fatalf("njoin -ppr: err=%v, want a rejection naming -measure", err)
	}
}
