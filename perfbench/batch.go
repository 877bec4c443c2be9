package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/obs"
)

// The paper's ∆ for heavy weights and ε for set cover (§5).
const (
	heavyDelta = 32768
	coverEps   = 0.01
)

// output is one kernel call's result, reduced to what is checked.
type output struct {
	coreness  []uint32
	dist      []int64
	inCover   []bool
	coverSize int
	rounds    int64
	relax     int64
	err       error
}

// runKernel calls one batch kernel; rec is nil on untraced passes.
func runKernel(name string, in *inputs, rec *obs.Recorder) output {
	sopt := sssp.Options{Recorder: rec}
	fused := sopt
	fused.Fusion = bucket.MaximalFusion()
	fromSSSP := func(r sssp.Result) output {
		return output{dist: r.Dist, rounds: r.Rounds, relax: r.Relaxations, err: r.Err}
	}
	switch name {
	case "kcore":
		r := kcore.Coreness(in.base, kcore.Options{Recorder: rec})
		return output{coreness: r.Coreness, rounds: r.Rounds, err: r.Err}
	case "wbfs":
		return fromSSSP(sssp.WBFS(in.logW, in.src, sopt))
	case "wbfs_fused":
		return fromSSSP(sssp.WBFS(in.logW, in.src, fused))
	case "delta":
		return fromSSSP(sssp.DeltaStepping(in.heavyW, in.src, heavyDelta, sopt))
	case "delta_fused":
		return fromSSSP(sssp.DeltaStepping(in.heavyW, in.src, heavyDelta, fused))
	case "setcover":
		r := setcover.Approx(in.base, in.base.NumVertices()/2,
			setcover.Options{Epsilon: coverEps, Recorder: rec})
		return output{inCover: r.InCover, coverSize: r.CoverSize, rounds: r.Rounds, err: r.Err}
	}
	panic("unknown kernel " + name)
}

// batchRefs checks kernel outputs: the first output of each kernel is
// checked against the independent references, later ones must equal
// it (every batch kernel is deterministic).
type batchRefs struct {
	in       *inputs
	coreness []uint32
	cover    coverRef
	first    map[string]output
}

func (r *batchRefs) check(name string, o output) error {
	if o.err != nil {
		return fmt.Errorf("%s: %w", name, o.err)
	}
	if f, ok := r.first[name]; ok {
		if !slices.Equal(o.coreness, f.coreness) || !slices.Equal(o.dist, f.dist) ||
			!slices.Equal(o.inCover, f.inCover) {
			return fmt.Errorf("%s: output differs from the checked first run", name)
		}
		return nil
	}
	var err error
	switch name {
	case "kcore":
		err = checkCoreness(o.coreness, r.coreness)
	case "wbfs", "wbfs_fused":
		err = checkDistances(r.in.logW, r.in.src, o.dist)
	case "delta", "delta_fused":
		err = checkDistances(r.in.heavyW, r.in.src, o.dist)
	case "setcover":
		err = checkCover(r.in.base, r.cover, coverEps, o.inCover, o.coverSize)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.first[name] = o
	return nil
}

// passResult is one timed pass over the batch.
type passResult struct {
	total   float64            // seconds
	cpu     float64            // process CPU seconds
	kernel  map[string]float64 // seconds per kernel
	bytes   float64            // bytes allocated
	rt0     rtSample           // runtime metrics at the start
	rt1     rtSample           // and at the end
	layers  layerTotals        // traced passes only
	rounds  int64
	relax   int64
	reached int64
}

// runPass runs every kernel once. Each pass starts from a collected
// heap so that passes see the same collector state. With traced set,
// every kernel gets a fresh Recorder whose totals are folded into the
// pass's layer totals.
func runPass(w workload, in *inputs, refs *batchRefs, traced bool, tr *tracer) (passResult, error) {
	runtime.GC()
	pr := passResult{kernel: map[string]float64{}}
	pr.rt0 = readRuntime()
	for _, k := range w.kernels {
		var rec *obs.Recorder
		if traced {
			rec = obs.NewRecorder()
		}
		sp := tr.begin("kernel."+k, 0)
		c := cpuSeconds()
		t := time.Now()
		o := runKernel(k, in, rec)
		d := time.Since(t).Seconds()
		pr.cpu += cpuSeconds() - c
		tr.end(sp)
		pr.total += d
		pr.kernel[k] = d
		pr.rounds += o.rounds
		pr.relax += o.relax
		if o.dist != nil {
			pr.reached += int64(summarize(o.dist).Reached)
		}
		if traced {
			pr.layers.add(rec)
		}
		// Outputs are checked outside the timed span.
		if err := refs.check(k, o); err != nil {
			return pr, err
		}
	}
	// The runtime folds CPU-class times in at the end of a GC cycle;
	// collecting here makes the pass's idle and GC CPU figures current.
	runtime.GC()
	pr.rt1 = readRuntime()
	pr.bytes = pr.rt0.delta(pr.rt1, rmAllocBytes)
	return pr, nil
}

// layerTotals sums one pass's Recorder readings over its kernels.
type layerTotals struct {
	nextCalls, updateCalls     int64
	nextNs, updateNs, roundsNs int64
	moved, skipped, extracted  int64
	roundsSaved                int64
	sparse, dense, edges       int64
	roundSnap                  obs.HistogramSnapshot
}

func (l *layerTotals) add(rec *obs.Recorder) {
	hists := rec.Histograms()
	next, upd, round := hists[obs.HistNextBucketNs], hists[obs.HistUpdateBucketsNs], hists[obs.HistRoundLatencyNs]
	l.nextCalls += next.Count
	l.nextNs += next.Sum
	l.updateCalls += upd.Count
	l.updateNs += upd.Sum
	l.roundsNs += round.Sum
	l.roundSnap.Merge(round)
	l.moved += rec.Counter(obs.CtrBucketMoved)
	l.skipped += rec.Counter(obs.CtrBucketSkipped)
	l.extracted += rec.Counter(obs.CtrBucketExtracted)
	l.roundsSaved += rec.Counter(obs.CtrBucketRoundsSaved)
	l.sparse += rec.Counter(obs.CtrEdgeMapSparse)
	l.dense += rec.Counter(obs.CtrEdgeMapDense)
	l.edges += rec.Counter(obs.CtrEdgeMapEdges)
	// k-core and the SSSP kernels make one push-only EdgeMap call per
	// round without reporting it to the Recorder; their rounds carry
	// the frontier's edge count instead.
	for _, m := range rec.Rounds() {
		if m.Algo == "kcore" || m.Algo == "sssp" {
			l.sparse++
			l.edges += m.EdgesTraversed
		}
	}
}

// batchStage holds what the batch stage measured.
type batchStage struct {
	w     workload
	in    *inputs
	refs  *batchRefs
	trace bool
	tr    *tracer

	p2, p1, traced []passResult
	pairs          int
	attempted      int
}

// newBatch warms up at both thread counts and checks the first output
// of every kernel at each.
func newBatch(w workload, in *inputs, refs *batchRefs, trace bool, tr *tracer) (*batchStage, error) {
	bs := &batchStage{w: w, in: in, refs: refs, trace: trace, tr: tr}
	for _, p := range []int{runtime.NumCPU(), 1} {
		if _, err := bs.pass(p, false); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

func (bs *batchStage) pass(p int, traced bool) (passResult, error) {
	var pr passResult
	var err error
	withProcs(p, func() { pr, err = runPass(bs.w, bs.in, bs.refs, traced, bs.tr) })
	bs.attempted += len(bs.w.kernels)
	return pr, err
}

// slice runs passes at GOMAXPROCS=nproc and 1, alternating which goes
// first so that drift in the machine's load spreads evenly over both,
// until dur is spent (at least one of each). With trace set, each pair
// is followed by one traced pass.
func (bs *batchStage) slice(dur time.Duration) error {
	nproc := runtime.NumCPU()
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		order := []int{nproc, 1}
		if bs.pairs%2 == 1 {
			order = []int{1, nproc}
		}
		bs.pairs++
		for _, p := range order {
			pr, err := bs.pass(p, false)
			if err != nil {
				return err
			}
			if p == 1 {
				bs.p1 = append(bs.p1, pr)
			} else {
				bs.p2 = append(bs.p2, pr)
			}
		}
		if bs.trace {
			pr, err := bs.pass(nproc, true)
			if err != nil {
				return err
			}
			bs.traced = append(bs.traced, pr)
		}
	}
	return nil
}

func medianOf(ps []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// solveTime is the time of one pass over the batch: the sum over its
// kernels of each kernel's lower-decile call time over the run's
// passes. Other tenants of the host slow calls in bursts of about a
// second; the passes are spread over the whole run, so the lower decile
// measures the program with little of that interference, where a
// median follows the host's load (see README.md).
func solveTime(ps []passResult, kernels []string) float64 {
	t := 0.0
	for _, k := range kernels {
		t += kernelTime(ps, k)
	}
	return t
}

func kernelTime(ps []passResult, k string) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.kernel[k]
	}
	return lowerDecile(xs)
}

// endToEnd adds the batch stage's end-to-end metrics.
func (bs *batchStage) endToEnd(m metricSet) {
	m.set("solve_s", solveTime(bs.p2, bs.w.kernels))
	m.set("solve_p1_s", solveTime(bs.p1, bs.w.kernels))
	m.set("alloc_mb", medianOf(bs.p2, func(p passResult) float64 { return p.bytes / 1e6 }))
}

// perLayer adds the batch stage's per-layer metrics. Counts and layer
// times come from the traced passes; kernel times (lower deciles, as
// solve_s), speedup and runtime figures from the untraced passes at
// GOMAXPROCS=nproc.
func (bs *batchStage) perLayer(w workload, m metricSet) {
	untraced := solveTime(bs.p2, w.kernels)
	m.set("parallel.speedup", solveTime(bs.p1, w.kernels)/untraced)
	m.set("trace.overhead_pct", 100*(solveTime(bs.traced, w.kernels)/untraced-1))
	for _, k := range []string{"kcore", "wbfs", "wbfs_fused", "delta", "delta_fused", "setcover"} {
		v := 0.0
		if slices.Contains(w.kernels, k) {
			v = kernelTime(bs.p2, k)
		}
		m.set("algo."+k+"_s", v)
	}
	lt := func(f func(l layerTotals) float64) float64 {
		return medianOf(bs.traced, func(p passResult) float64 { return f(p.layers) })
	}
	m.set("bucket.next_calls", lt(func(l layerTotals) float64 { return float64(l.nextCalls) }))
	m.set("bucket.next_ms", lt(func(l layerTotals) float64 { return float64(l.nextNs) / 1e6 }))
	m.set("bucket.update_calls", lt(func(l layerTotals) float64 { return float64(l.updateCalls) }))
	m.set("bucket.update_ms", lt(func(l layerTotals) float64 { return float64(l.updateNs) / 1e6 }))
	m.set("bucket.moved", lt(func(l layerTotals) float64 { return float64(l.moved) }))
	m.set("bucket.skipped", lt(func(l layerTotals) float64 { return float64(l.skipped) }))
	m.set("bucket.extracted", lt(func(l layerTotals) float64 { return float64(l.extracted) }))
	m.set("bucket.update_rate", lt(func(l layerTotals) float64 {
		if l.updateNs == 0 {
			return 0
		}
		return float64(l.moved) / (float64(l.updateNs) / 1e9)
	}))
	m.set("bucket.rounds_saved", lt(func(l layerTotals) float64 { return float64(l.roundsSaved) }))
	m.set("ligra.sparse_calls", lt(func(l layerTotals) float64 { return float64(l.sparse) }))
	m.set("ligra.dense_calls", lt(func(l layerTotals) float64 { return float64(l.dense) }))
	m.set("ligra.edges", lt(func(l layerTotals) float64 { return float64(l.edges) }))
	// Round spans open after NextBucket returns, so a round's time is
	// its EdgeMap, its own per-round work and its UpdateBuckets call.
	m.set("ligra.apply_ms", lt(func(l layerTotals) float64 { return max(0, float64(l.roundsNs-l.updateNs)/1e6) }))
	m.set("algo.round_p50_us", lt(func(l layerTotals) float64 { return float64(l.roundSnap.Quantile(0.5)) / 1e3 }))
	m.set("algo.rounds", medianOf(bs.traced, func(p passResult) float64 { return float64(p.rounds) }))
	m.set("algo.reached", medianOf(bs.traced, func(p passResult) float64 { return float64(p.reached) }))
	m.set("algo.relax_per_reached", medianOf(bs.traced, func(p passResult) float64 {
		if p.reached == 0 {
			return 0
		}
		return float64(p.relax) / float64(p.reached)
	}))
	rt := func(name string) float64 {
		return medianOf(bs.p2, func(p passResult) float64 { return p.rt0.delta(p.rt1, name) })
	}
	m.set("runtime.allocs", rt(rmAllocObjs))
	// Less the collection runPass forces at the end of the pass.
	m.set("runtime.gc_cycles", rt(rmGCCycles)-1)
	m.set("runtime.gc_cpu_s", rt(rmGCCPU))
	m.set("parallel.idle_cpu_s", rt(rmIdleCPU))
	m.set("parallel.sched_wait_ms", medianOf(bs.p2, func(p passResult) float64 {
		return 1e3 * histQuantile(p.rt1.sched, p.rt0.schedCounts(p.rt1), 0.99)
	}))
}

// samples is the raw per-pass and per-phase data, for the report.
func samples(bs *batchStage, st *serveStage) map[string]any {
	col := func(ps []passResult, f func(passResult) float64) []float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, f(p))
		}
		return xs
	}
	wall := func(p passResult) float64 { return p.total }
	cpu := func(p passResult) float64 { return p.cpu }
	out := map[string]any{
		"p2_wall": col(bs.p2, wall), "p2_cpu": col(bs.p2, cpu),
		"p1_wall": col(bs.p1, wall), "p1_cpu": col(bs.p1, cpu),
	}
	for _, k := range []string{"kcore", "wbfs", "wbfs_fused", "delta", "delta_fused", "setcover"} {
		if _, ok := bs.p2[0].kernel[k]; ok {
			out["p2_"+k] = col(bs.p2, func(p passResult) float64 { return p.kernel[k] })
			out["p1_"+k] = col(bs.p1, func(p passResult) float64 { return p.kernel[k] })
		}
	}
	var low, high []float64
	for _, ph := range st.low {
		for _, d := range ph.latencies(nil) {
			low = append(low, ms(d))
		}
	}
	for _, ph := range st.high {
		for _, d := range ph.latencies(nil) {
			high = append(high, ms(d))
		}
	}
	out["low_ms"], out["high_ms"] = low, high
	var jobs []float64
	for _, j := range st.jobs.jobs {
		jobs = append(jobs, j.runTime.Seconds())
	}
	out["jobs_s"] = jobs
	return out
}
