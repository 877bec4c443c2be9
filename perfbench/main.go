// Command perfbench is the repository's benchmark: one command that
// runs a workload end to end and layer by layer and checks every
// output against references of its own.
//
//	perfbench --workload rmat-batch --seed 1 --seconds 40 --trace 0
//	perfbench steady --workload grid-batch -k 10
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it prints the per-layer metrics and writes a Chrome
// trace of its own spans under .bench_build/traces. The last line of
// standard output is always the JSON result. perfbench/run.sh builds
// and runs it from the root of a checkout; see perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir is where builds, reports and traces go, inside the checkout.
const outDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", nominalSeconds, "measured run length")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a Chrome trace")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err == nil && (*trace != 0 && *trace != 1 || *seconds <= 0) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; units come from the metric tables.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// run measures one workload. An output that fails its check ends the
// run with Correct false after the result is printed; any other error
// prints no result.
func run(w workload, seed uint64, seconds float64, trace bool) (result, error) {
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	in, srv, su, err := setup(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if srv != nil {
			if err := srv.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
			}
		}
	}()
	prov := provenance(w, seed, in, srv)
	emit(os.Stdout, "provenance", prov)

	core := refCoreness(in.base)
	cover := refCover(in.base, in.base.NumVertices()/2)
	refs := &batchRefs{in: in, coreness: core, cover: cover, first: map[string]output{}}
	batchDur := time.Duration(seconds * batchShare * float64(time.Second))

	res := result{Correct: true}
	scale := min(1, seconds/nominalSeconds)
	bs, checkErr := newBatch(w, in, refs, trace, tr)
	var st *serveStage
	if checkErr == nil {
		// The batch passes and the serving rounds alternate, so that
		// every figure samples the whole run's machine load.
		st = newServe(w, in, srv, seed, scale, tr)
		rounds := max(2, int(math.Round(serveRounds*scale)))
		for i := 0; i < rounds && checkErr == nil; i++ {
			if checkErr = bs.slice(batchDur / time.Duration(rounds)); checkErr == nil {
				st.round(i)
			}
		}
		st.finish()
		if checkErr == nil {
			checkErr = checkResponses(st, in, core, cover)
		}
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", checkErr)
		res.Correct = false
		res.Metrics = map[string]metricValue{}
		emitResult(res)
		return res, nil
	}
	for _, ph := range st.phases() {
		emit(os.Stdout, "phase", ph.accounting())
	}

	m := metricSet{}
	table := endToEndMetrics
	if trace {
		table = perLayerMetrics
		bs.perLayer(w, m)
		st.perLayer(m)
		m.set("graph.gen_s", su.GenS)
		m.set("graph.build_s", su.BuildS)
		m.set("graph.mb", csrMB(in.base)+csrMB(in.logW)+csrMB(in.heavyW))
	} else {
		m.set("setup_s", su.SetupS)
		bs.endToEnd(m)
		m.set("heap_mb", st.heapMB)
	}
	res.Attempted = bs.attempted + st.attempted
	res.Failed = st.failed
	res.Metrics = map[string]metricValue{}
	for _, d := range table {
		v, ok := m[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-26s %14.6g %-6s %s\n", d.Name, v, d.Unit, d.note(st))
	}
	report := map[string]any{"provenance": prov, "setup": su, "result": res, "samples": samples(bs, st)}
	if err := writeJSON(fmt.Sprintf("%s/reports/%s-seed%d-trace%d.json", outDir, w.name, seed, b2i(trace)), report); err != nil {
		return result{}, err
	}
	if trace {
		if err := tr.write(fmt.Sprintf("%s/traces/%s-seed%d.json", outDir, w.name, seed)); err != nil {
			return result{}, err
		}
	}
	emitResult(res)
	return res, nil
}

// setupTimes is the set-up stage's measurement: medians over reps.
type setupTimes struct {
	SetupS float64 `json:"setup_s"`
	GenS   float64 `json:"gen_s"`
	BuildS float64 `json:"build_s"`
	Reps   int     `json:"reps"`
}

// Set-up repeats until it has run at least minSetupReps times and
// minSetupSeconds in total, so that its median rests on enough work.
const (
	minSetupReps    = 5
	maxSetupReps    = 25
	minSetupSeconds = 2.0
)

// setup generates the inputs, starts the server and lets it compute
// its lazily built coreness table, as a user's first /coreness query
// would. It runs several times; the last server is kept.
func setup(w workload, seed uint64, tr *tracer) (*inputs, *server, setupTimes, error) {
	var total, gens, builds []float64
	var in *inputs
	var srv *server
	sum := 0.0
	for rep := 0; rep < minSetupReps || (sum < minSetupSeconds && rep < maxSetupReps); rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, setupTimes{}, fmt.Errorf("stop server: %w", err)
			}
			srv, in = nil, nil
		}
		runtime.GC()
		sp := tr.begin("setup", 1)
		t := time.Now()
		in = genInputs(w, seed)
		var err error
		srv, err = startServer(in.logW)
		if err != nil {
			return nil, nil, setupTimes{}, err
		}
		c := newClient(srv.url)
		status, err := c.do("GET", "/coreness?v=0", nil)
		c.close()
		if err == nil && status != 200 {
			err = fmt.Errorf("warm-up /coreness: HTTP %d", status)
		}
		if err != nil {
			_ = srv.stop()
			return nil, nil, setupTimes{}, err
		}
		d := time.Since(t).Seconds()
		tr.end(sp)
		sum += d
		total = append(total, d)
		gens = append(gens, in.genS)
		builds = append(builds, in.buildS)
	}
	return in, srv, setupTimes{SetupS: median(total), GenS: median(gens), BuildS: median(builds), Reps: len(total)}, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// emit prints one labelled JSON line of the report.
func emit(w io.Writer, label string, v any) {
	b, _ := json.Marshal(v) // maps of plain values always marshal
	fmt.Fprintf(w, "%s: %s\n", label, b)
}

func emitResult(res result) {
	b, _ := json.Marshal(res) // plain values always marshal
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
