package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/gen"
	"julienne/internal/graph"
)

// Each check must accept the program's real output and reject that
// output with one corruption.

func TestCorenessCheckRejectsCorruption(t *testing.T) {
	g := gen.RMAT(1<<10, 1<<13, true, 3)
	ref := refCoreness(g)
	got := kcore.Coreness(g, kcore.Options{}).Coreness
	if err := checkCoreness(got, ref); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	if err := checkCoreness(kcore.CorenessBZ(g), ref); err != nil {
		t.Fatalf("reference disagrees with the sequential kernel: %v", err)
	}
	bad := append([]uint32(nil), got...)
	bad[len(bad)/2]++
	if checkCoreness(bad, ref) == nil {
		t.Fatal("corrupted coreness accepted")
	}
}

func TestDistanceCheckRejectsCorruption(t *testing.T) {
	g := gen.LogWeights(gen.Grid2D(16, 16), 5)
	src := graph.Vertex(0)
	dist := sssp.WBFS(g, src, sssp.Options{}).Dist
	if err := checkDistances(g, src, dist); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	corrupt := map[string]func(d []int64) []int64{
		"raised":    func(d []int64) []int64 { d[100] += 3; return d },
		"lowered":   func(d []int64) []int64 { d[100]--; return d },
		"source":    func(d []int64) []int64 { d[src] = 1; return d },
		"unreached": func(d []int64) []int64 { d[200] = unreachable; return d },
		"truncated": func(d []int64) []int64 { return d[:len(d)-1] },
	}
	for name, f := range corrupt {
		bad := f(append([]int64(nil), dist...))
		if checkDistances(g, src, bad) == nil {
			t.Errorf("%s: corrupted distances accepted", name)
		}
	}
	if summarize(refDistances(g, src)) != summarize(dist) {
		t.Error("reference Dijkstra disagrees with wBFS")
	}
}

func TestCoverCheckRejectsCorruption(t *testing.T) {
	g := gen.RMAT(1<<10, 1<<13, true, 4)
	numSets := g.NumVertices() / 2
	ref := refCover(g, numSets)
	res := setcover.Approx(g, numSets, setcover.Options{Epsilon: coverEps})
	if err := checkCover(g, ref, coverEps, res.InCover, res.CoverSize); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	dropped := append([]bool(nil), res.InCover...)
	for s, in := range dropped {
		if in && g.OutDegree(graph.Vertex(s)) > 0 {
			dropped[s] = false
			break
		}
	}
	if checkCover(g, ref, coverEps, dropped, res.CoverSize-1) == nil {
		t.Error("cover with a set dropped accepted")
	}
	if checkCover(g, ref, coverEps, res.InCover, res.CoverSize+1) == nil {
		t.Error("miscounted cover accepted")
	}
	if checkCoverSize(ref, coverEps, ref.sizeBound(coverEps)+1) == nil {
		t.Error("cover above the (1+ε)·H_Δ bound accepted")
	}
}

func TestServeCheckRejectsCorruption(t *testing.T) {
	base := gen.Grid2D(8, 8)
	in := &inputs{base: base, logW: gen.LogWeights(base, 2)}
	core := refCoreness(base)
	cover := refCover(base, base.NumVertices()/2)
	src := graph.Vertex(9)
	want := summarize(refDistances(in.logW, src))
	c := core[src]
	stage := func() *serveStage {
		reqs := []*request{
			{id: 1, kind: kindSSSP, v: src, status: 200, resp: queryResponse{Reached: want.Reached, MaxDist: want.MaxDist}},
			{id: 2, kind: kindCoreness, v: src, status: 200, resp: queryResponse{Coreness: &c}},
		}
		ph := &phase{reqs: reqs, jobs: []*jobRun{{coverSize: cover.greedy}}}
		return &serveStage{warm: &phase{}, low: []*phase{ph}, high: []*phase{{}}, jobs: &phase{}}
	}
	if err := checkResponses(stage(), in, core, cover); err != nil {
		t.Fatalf("correct responses rejected: %v", err)
	}
	corrupt := map[string]func(st *serveStage){
		"reached":  func(st *serveStage) { st.low[0].reqs[0].resp.Reached-- },
		"max_dist": func(st *serveStage) { st.low[0].reqs[0].resp.MaxDist++ },
		"coreness": func(st *serveStage) { v := c + 1; st.low[0].reqs[1].resp.Coreness = &v },
		"cover":    func(st *serveStage) { st.low[0].jobs[0].coverSize = cover.sizeBound(coverEps) + 1 },
	}
	for name, f := range corrupt {
		st := stage()
		f(st)
		if checkResponses(st, in, core, cover) == nil {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	if idx, _ := tailIndex(39); idx != 19 {
		t.Errorf("39 samples: index %d, want the median 19", idx)
	}
	for _, n := range []int{40, 100, 1000} {
		if idx, _ := tailIndex(n); n-1-idx != 10 {
			t.Errorf("%d samples: %d beyond the tail, want 10", n, n-1-idx)
		}
	}
}

// BENCHMARK.json and the metric and workload tables must agree.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, want %d", bf.RunSeconds, nominalSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, table has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		file, table []metricDef
	}{{bf.EndToEnd, endToEndMetrics}, {bf.PerLayer, perLayerMetrics}} {
		if len(c.file) != len(c.table) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the table", len(c.file), len(c.table))
		}
		for i := range c.file {
			if c.file[i] != c.table[i] {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the table", i, c.file[i], c.table[i])
			}
		}
	}
}

func TestMonotoneKeepsSortedAndPoolsViolators(t *testing.T) {
	if got := monotone([]float64{1, 2, 3}); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("sorted input changed: %v", got)
	}
	if got := monotone([]float64{1, 4, 2, 5}); got[1] != 3 || got[2] != 3 {
		t.Errorf("violating pair not pooled: %v", got)
	}
	inf := math.Inf(1)
	if got := monotone([]float64{1, inf, 2}); !math.IsInf(got[2], 1) {
		t.Errorf("a failed rung must stay over every limit: %v", got)
	}
}

func TestCrossingInterpolatesWithinBracket(t *testing.T) {
	rates := []float64{10, 20, 30, 40, 50}
	logs := []float64{math.Log(10), math.Log(20), math.Log(40), math.Log(80), math.Log(160)}
	got := crossingOf(rates, logs, math.Log(60))
	if want := 30 + 10*math.Log(1.5)/math.Log(2); math.Abs(got-want) > 1e-9 {
		t.Errorf("crossing %v, want %v", got, want)
	}
	if got := crossingOf(rates, logs, math.Log(1000)); got != 50 {
		t.Errorf("no crossing: got %v, want the top rate", got)
	}
	inf := math.Inf(1)
	if got := crossingOf(rates, []float64{1, 2, inf, inf, inf}, math.Log(100)); got != 20 {
		t.Errorf("failed rung: got %v, want the last passing rate", got)
	}
}
