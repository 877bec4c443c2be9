package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

// nominalSeconds is BENCHMARK.json's run_seconds, the default run
// length.
const nominalSeconds = 40

// workload is one set of inputs the benchmark runs. Every workload has
// the same two parts over one graph, interleaved through the run: batch
// passes that call the kernels directly and serving rounds that drive
// internal/serve over loopback HTTP. Every end-to-end and per-layer
// metric is therefore measured on every workload; the workloads differ
// in the graph, in the kernels of the batch and in the request rates.
type workload struct {
	name string
	why  string

	family string // "rmat" or "grid"
	n, m   int    // RMAT vertices and sampled edges
	side   int    // grid rows = cols

	kernels []string // batch kernels, in pass order
	serve   serveSpec
}

// batchShare is the share of the run spent in batch passes, spread over
// the serving rounds. The serving stage sends fixed request counts,
// sized to take about the rest at the nominal run length.
const batchShare = 15.0 / 40

// serveSpec sets the open-loop rates of the serving stage (its request
// counts are in serve.go) and the p90 latency limit behind max_qps.
type serveSpec struct {
	low, high float64 // fixed request rates (1/s)
	limitMs   float64
}

var workloads = []workload{
	{
		name: "rmat-batch",
		why: "skewed low-diameter RMAT graph: large frontiers and few rounds, so time goes to " +
			"UpdateBuckets traffic and EdgeMap; fusion never fires",
		family: "rmat", n: 1 << 16, m: 1 << 19,
		kernels: []string{"kcore", "wbfs", "delta", "setcover"},
		serve:   serveSpec{low: 15, high: 30, limitMs: 250},
	},
	{
		name: "grid-batch",
		why: "192x192 grid, the road-network stand-in: thousands of rounds with frontiers of " +
			"tens of vertices, so per-round overhead dominates and fusion fires",
		family: "grid", side: 192,
		kernels: []string{"wbfs", "wbfs_fused", "delta", "delta_fused"},
		serve:   serveSpec{low: 12, high: 20, limitMs: 400},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// graphSpec describes the input for the report's provenance.
func (w workload) graphSpec() map[string]any {
	spec := map[string]any{"family": w.family, "symmetric": true,
		"weighting": "log [1,log2 n) for wbfs and serving; heavy [1,1e5) for delta"}
	if w.family == "rmat" {
		spec["n"], spec["m_sampled"] = w.n, w.m
	} else {
		spec["rows"], spec["cols"], spec["n"] = w.side, w.side, w.side*w.side
	}
	return spec
}

// inputs is everything the benchmark generates from the seed. The
// kernels and the server receive only these graphs and vertex ids.
type inputs struct {
	base   *graph.CSR // unweighted, symmetric: k-core and set cover
	logW   *graph.CSR // log weights: wBFS and every served query
	heavyW *graph.CSR // heavy weights: ∆-stepping
	src    graph.Vertex
	pool   []graph.Vertex // source pool of the serving stage

	genS, buildS float64
}

// genInputs generates the workload's graphs. The weight seeds follow
// cmd/served, which weights an unweighted graph with seed+1.
func genInputs(w workload, seed uint64) *inputs {
	in := &inputs{}
	t := time.Now()
	if w.family == "rmat" {
		in.base = gen.RMAT(w.n, w.m, true, seed)
	} else {
		in.base = gen.Grid2D(w.side, w.side)
	}
	in.genS = time.Since(t).Seconds()
	t = time.Now()
	in.logW = gen.LogWeights(in.base, seed+1)
	in.heavyW = gen.HeavyWeights(in.base, seed+2)
	in.buildS = time.Since(t).Seconds()
	in.src, in.pool = pickSources(w, in.base, seed)
	return in
}

// poolSize is the number of distinct sources the serving stage draws
// from: four times what the result cache holds (64 entries, two per
// source), so that with the skewed draw both hits and misses occur.
const poolSize = 256

// pickSources chooses the batch source and the serving pool so that
// every seed sees sources of the same kind. On a grid the batch source
// is a corner and the pool is drawn from the vertices whose hop
// eccentricity is about 1.5 times the side: a query's rounds follow
// its source's eccentricity, so a pool of mixed eccentricities would
// make latency depend on which sources the seed puts at the pool's hot
// head. On RMAT both are drawn from the 1% highest-degree vertices,
// which sit in the giant component.
func pickSources(w workload, g *graph.CSR, seed uint64) (graph.Vertex, []graph.Vertex) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	n := g.NumVertices()
	var src graph.Vertex
	var cands []graph.Vertex
	if w.family == "grid" {
		s := w.side - 1
		corners := []int{0, s, s * w.side, s*w.side + s}
		src = graph.Vertex(corners[r.IntN(4)])
		ecc := 3 * s / 2
		for v := 0; v < n; v++ {
			row, col := v/w.side, v%w.side
			if e := max(row, s-row) + max(col, s-col); e == ecc || e == ecc+1 {
				cands = append(cands, graph.Vertex(v))
			}
		}
	} else {
		cands = make([]graph.Vertex, n)
		for i := range cands {
			cands[i] = graph.Vertex(i)
		}
		sort.SliceStable(cands, func(i, j int) bool {
			return g.OutDegree(cands[i]) > g.OutDegree(cands[j])
		})
		cands = cands[:max(n/100, poolSize)]
		src = cands[r.IntN(len(cands))]
	}
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return src, cands[:poolSize]
}

// csrMB is the computed size of a CSR's arrays: offsets (8 bytes per
// vertex), out-degrees (4), targets (4 per directed edge) and weights
// (4) when present.
func csrMB(g *graph.CSR) float64 {
	b := 12*float64(g.NumVertices()+1) + 4*float64(g.NumEdges())
	if g.Weighted() {
		b += 4 * float64(g.NumEdges())
	}
	return b / 1e6
}

// withProcs runs f at GOMAXPROCS p.
func withProcs(p int, f func()) {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	f()
}
