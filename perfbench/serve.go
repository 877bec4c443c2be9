package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/serve"
)

// server is internal/serve configured as cmd/served configures it by
// default, process Recorder included, on a loopback listener.
type server struct {
	srv  *serve.Server
	rec  *obs.Recorder
	hs   *http.Server
	done chan error
	url  string
	cfg  map[string]any
}

func startServer(g *graph.CSR) (*server, error) {
	cfg := serve.Config{
		Graph:          g,
		Recorder:       obs.NewRecorder(),
		CacheSize:      64,
		JobWorkers:     1,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		DefaultDelta:   heavyDelta,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  serve.New(cfg),
		rec:  cfg.Recorder,
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		cfg: map[string]any{
			"max_in_flight": runtime.GOMAXPROCS(0), "max_queued": 4 * runtime.GOMAXPROCS(0),
			"cache": cfg.CacheSize, "job_workers": cfg.JobWorkers, "job_queue": 8,
			"default_timeout": cfg.DefaultTimeout.String(), "delta": cfg.DefaultDelta,
			"recorder": "process-wide, as cmd/served", "transport": "loopback HTTP/1.1",
		},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the service and waits for the HTTP server to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Close(ctx) // always nil; it waits for every handler
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// maxConns is the number of HTTP connections the load uses.
const maxConns = 2

type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes a JSON body into out (if non-nil).
func (c *client) do(method, path string, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

const (
	kindSSSP = iota
	kindWBFS
	kindCoreness
)

var kindNames = []string{"sssp", "wbfs", "coreness"}

// request is one scheduled query and what became of it.
type request struct {
	id              int64
	kind            int
	v               graph.Vertex
	due, sent, done time.Time
	status          int
	err             error
	resp            queryResponse
}

type queryResponse struct {
	Reached   int     `json:"reached"`
	MaxDist   int64   `json:"max_dist"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	Coreness  *uint32 `json:"coreness"`
}

func (r *request) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is measured from when the request was due, so a stall is
// charged to every request it delays. A failed request counts as
// missing any limit.
func (r *request) latency() time.Duration {
	if !r.ok() {
		return time.Hour
	}
	return r.done.Sub(r.due)
}

func (r *request) path() string {
	if r.kind == kindCoreness {
		return fmt.Sprintf("/coreness?v=%d", r.v)
	}
	return fmt.Sprintf("/%s?src=%d", kindNames[r.kind], r.v)
}

// makeRequests draws n queries: 45% /sssp, 45% /wbfs, 10% /coreness,
// with vertices drawn from the pool skewed toward its head (index
// ⌊len·u^1.5⌋) so that the cache and the coalescer see repeats. Fast
// answers (lookups and cache hits) stay well under half of all
// requests, so the median latency is that of a computed query on every
// seed rather than flipping between the two modes.
func makeRequests(r *rand.Rand, pool []graph.Vertex, n int, nextID *int64) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		kind := kindSSSP
		switch x := r.IntN(20); {
		case x >= 18:
			kind = kindCoreness
		case x >= 9:
			kind = kindWBFS
		}
		u := math.Pow(r.Float64(), 1.5)
		*nextID++
		reqs[i] = &request{id: *nextID, kind: kind, v: pool[int(float64(len(pool))*u)]}
	}
	return reqs
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	name   string
	rate   float64
	reqs   []*request
	late   []time.Duration // generator lateness per request
	start  time.Time
	end    time.Time // when the last response arrived
	jobs   []*jobRun
	failed int
	// backlog is the number of requests due but not answered at the
	// last due instant, and its growth since the middle of the phase.
	backlog, backlogGrowth int
}

// runPhase sends reqs open loop at rate: request i is due at
// start+i/rate whatever happened to earlier ones. A generator releases
// each request when due; maxConns senders take them in order. Jobs, if
// any, are submitted at evenly spaced instants from the phase's start.
func (c *client) runPhase(name string, rate float64, reqs []*request, jobs int, tr *tracer) *phase {
	ph := &phase{name: name, rate: rate, reqs: reqs, late: make([]time.Duration, len(reqs))}
	ph.start = time.Now().Add(5 * time.Millisecond)
	for i, r := range reqs {
		r.due = ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	queue := make(chan *request, len(reqs)) // holds every request: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(worker int64) {
			defer wg.Done()
			for r := range queue {
				r.sent = time.Now()
				r.status, r.err = c.do(http.MethodGet, r.path(), &r.resp)
				r.done = time.Now()
				tr.add("req."+kindNames[r.kind], 100+worker, r.due, r.done,
					map[string]any{"id": r.id, "phase": name, "status": r.status, "cached": r.resp.Cached})
				tr.add("http", 100+worker, r.sent, r.done, map[string]any{"id": r.id})
			}
		}(int64(w))
	}
	if jobs > 0 {
		span := time.Duration(float64(len(reqs)) / rate * float64(time.Second))
		for k := 0; k < jobs; k++ {
			at := ph.start.Add(span * time.Duration(k) / time.Duration(jobs))
			j := &jobRun{}
			ph.jobs = append(ph.jobs, j)
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Until(at))
				c.runJob(j, tr)
			}()
		}
	}
	for i, r := range reqs {
		time.Sleep(time.Until(r.due))
		ph.late[i] = time.Since(r.due)
		queue <- r
	}
	close(queue)
	wg.Wait()
	ph.end = time.Now()
	for _, r := range reqs {
		if !r.ok() {
			ph.failed++
		}
	}
	for _, j := range ph.jobs {
		if j.err != nil {
			ph.failed++
		}
	}
	if n := len(reqs); n > 0 {
		last, mid := reqs[n-1].due, reqs[n/2].due
		ph.backlog = outstanding(reqs, last)
		ph.backlogGrowth = ph.backlog - outstanding(reqs, mid)
	}
	return ph
}

func outstanding(reqs []*request, at time.Time) int {
	c := 0
	for _, r := range reqs {
		if !r.due.After(at) && r.done.After(at) {
			c++
		}
	}
	return c
}

func (ph *phase) latencies(filter func(*request) bool) []time.Duration {
	var out []time.Duration
	for _, r := range ph.reqs {
		if filter == nil || filter(r) {
			out = append(out, r.latency())
		}
	}
	return out
}

// jobRun is one set-cover job: submitted, then polled until finished.
// runTime is the job's run time as the server records it, free of the
// polling interval.
type jobRun struct {
	turnaround, runTime time.Duration
	coverSize           int
	err                 error
}

const jobPoll = 5 * time.Millisecond

func (c *client) runJob(j *jobRun, tr *tracer) {
	t0 := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	status, err := c.do(http.MethodPost, "/jobs/setcover", &sub)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", status)
	}
	for err == nil {
		var info struct {
			Status     string `json:"status"`
			Error      string `json:"error"`
			DurationNs int64  `json:"duration_ns"`
			Result     struct {
				CoverSize int `json:"cover_size"`
			} `json:"result"`
		}
		status, err = c.do(http.MethodGet, "/jobs/"+sub.ID, &info)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", status)
		}
		if err != nil {
			break
		}
		if info.Status == "done" {
			j.coverSize = info.Result.CoverSize
			j.runTime = time.Duration(info.DurationNs)
			break
		}
		if info.Status != "pending" && info.Status != "running" {
			err = fmt.Errorf("job %s: %s %s", sub.ID, info.Status, info.Error)
			break
		}
		time.Sleep(jobPoll)
	}
	j.err = err
	j.turnaround = time.Since(t0)
	tr.add("job.setcover", 99, t0, t0.Add(j.turnaround), map[string]any{"id": sub.ID})
}

// The serving stage's schedule: a warm-up that brings the result cache
// to its steady state, serveRounds rounds of a low and a high phase,
// a job phase at the low rate with jobsN set-cover jobs, and one rung
// per ladderMults entry. The jobs get a phase of their own so that the
// high phases' tails measure queueing among queries, not how many
// queries a job happened to overlap. Counts are requests per phase at
// the nominal run length; latency figures pool each rate's phases, so
// their tails rest on 120 and 200 samples. A rung lasts rungSeconds whatever its
// rate, so that above capacity its backlog, and with it its p90, grows
// with the overload; the ladder stops early once a rung's p90 exceeds
// three times the limit.
const (
	warmN       = 20
	lowN        = 12
	highN       = 20
	serveRounds = 10
	jobsN       = 9
	jobPhaseN   = 45
	rungSeconds = 1.0
)

// ladderMults are the ladder's rates as multiples of the high rate.
var ladderMults = []float64{1.5, 2, 2.5, 3, 3.5, 4, 4.5}

// serveStage holds what the serving stage measured.
type serveStage struct {
	w      workload
	in     *inputs
	s      *server
	tr     *tracer
	c      *client
	r      *rand.Rand
	scale  float64
	nextID int64
	ctr0   map[string]int64

	handlerN, handlerNs, queueN, queueNs int64

	warm      *phase
	low, high []*phase
	jobs      *phase
	ladder    []*phase
	maxQPS    float64
	attempted int
	failed    int

	heapMB, allocMB, mutexMs  float64
	hits, misses, coalesced   int64
	queueWaitMs, handlerMs    float64
	transportMs               float64
	roundsRetained, eventsRet int
}

// newServe starts the serving stage: a warm-up phase that brings the
// result cache to its steady state. scale shrinks every phase for runs
// shorter than the nominal length.
func newServe(w workload, in *inputs, s *server, seed uint64, scale float64, tr *tracer) *serveStage {
	st := &serveStage{w: w, in: in, s: s, tr: tr, c: newClient(s.url),
		r: rand.New(rand.NewPCG(seed, 0xc11e)), scale: scale}
	st.warm = st.c.runPhase("warm", w.serve.high, st.reqs(warmN), 0, tr)
	st.ctr0 = s.rec.Counters()
	return st
}

func (st *serveStage) reqs(n int) []*request {
	return makeRequests(st.r, st.in.pool, max(12, int(math.Round(float64(n)*st.scale))), &st.nextID)
}

func (st *serveStage) hist(name string) obs.HistogramSnapshot {
	return st.s.rec.Histogram(name).Snapshot()
}

func (st *serveStage) handlerSnap() obs.HistogramSnapshot {
	var h obs.HistogramSnapshot
	for _, e := range []string{obs.HistServeSSSPNs, obs.HistServeWBFSNs, obs.HistServeCorenessNs} {
		h.Merge(st.hist(e))
	}
	return h
}

// round runs one low and one high phase. Runtime figures are summed
// over these phases only, so the batch passes between rounds do not
// count toward them.
func (st *serveStage) round(i int) {
	sp := st.w.serve
	rt0 := readRuntime()
	h0 := st.handlerSnap()
	st.low = append(st.low, st.c.runPhase(fmt.Sprintf("low#%d", i+1), sp.low, st.reqs(lowN), 0, st.tr))
	h1 := st.handlerSnap()
	st.handlerN += h1.Count - h0.Count
	st.handlerNs += h1.Sum - h0.Sum
	q0 := st.hist(obs.HistServeQueueWaitNs)
	st.high = append(st.high, st.c.runPhase(fmt.Sprintf("high#%d", i+1), sp.high, st.reqs(highN), 0, st.tr))
	q1 := st.hist(obs.HistServeQueueWaitNs)
	st.queueN += q1.Count - q0.Count
	st.queueNs += q1.Sum - q0.Sum
	rt1 := readRuntime()
	st.allocMB += rt0.delta(rt1, rmAllocBytes) / 1e6
	st.mutexMs += 1e3 * rt0.delta(rt1, rmMutexWait)
}

// finish reads the fixed-rate phases' figures and the live heap after
// them, then runs the job phase and the ladder.
func (st *serveStage) finish() {
	sp := st.w.serve
	ctr1 := st.s.rec.Counters()
	st.hits = ctr1[obs.CtrServeCacheHits] - st.ctr0[obs.CtrServeCacheHits]
	st.misses = ctr1[obs.CtrServeCacheMisses] - st.ctr0[obs.CtrServeCacheMisses]
	st.coalesced = ctr1[obs.CtrServeCoalesced] - st.ctr0[obs.CtrServeCoalesced]
	if st.queueN > 0 {
		st.queueWaitMs = float64(st.queueNs) / float64(st.queueN) / 1e6
	}
	if st.handlerN > 0 {
		st.handlerMs = float64(st.handlerNs) / float64(st.handlerN) / 1e6
		var client time.Duration
		n := 0
		for _, ph := range st.low {
			for _, q := range ph.reqs {
				client += q.done.Sub(q.sent)
				n++
			}
		}
		st.transportMs = ms(client)/float64(n) - st.handlerMs
	}
	st.roundsRetained = st.s.rec.NumRounds()
	st.eventsRet = len(st.s.rec.Events())
	runtime.GC()
	st.heapMB = readRuntime().scalar[rmLiveHeap] / 1e6

	st.jobs = st.c.runPhase("jobs", sp.low, st.reqs(jobPhaseN), jobsN, st.tr)

	for _, m := range ladderMults {
		rate := m * sp.high
		ph := st.c.runPhase(fmt.Sprintf("ladder@%.1f", rate), rate, st.reqs(int(rate*rungSeconds)), 0, st.tr)
		st.ladder = append(st.ladder, ph)
		if _, p := p90([]*phase{ph}); p > 3*sp.limitMs {
			break
		}
	}
	st.c.close()
	st.maxQPS = st.crossing(sp.limitMs)
	for _, ph := range st.phases() {
		st.attempted += len(ph.reqs) + len(ph.jobs)
		st.failed += ph.failed
	}
}

func (st *serveStage) phases() []*phase {
	out := []*phase{st.warm}
	for i := range st.low {
		out = append(out, st.low[i], st.high[i])
	}
	return append(append(out, st.jobs), st.ladder...)
}

// p90 is the ladder's latency criterion over phs (all at one rate):
// the 90th percentile, since a rung is too short for the ten-beyond
// tail, or +Inf when a request failed. A backlog that keeps growing
// through a phase pushes its p90 past any limit.
func p90(phs []*phase) (rate, p float64) {
	var lat []time.Duration
	for _, ph := range phs {
		rate = ph.rate
		if ph.failed > 0 {
			return rate, math.Inf(1)
		}
		lat = append(lat, ph.latencies(nil)...)
	}
	slices.Sort(lat)
	return rate, ms(lat[int(math.Ceil(0.9*float64(len(lat))))-1])
}

// crossing is max_qps: the rate at which the p90 latency reaches the
// limit. The points are the low and the high phase, each pooled over
// the rounds, then the ladder's rungs. Their log p90 is made monotone
// in the rate (pool-adjacent-violators), and a least-squares line
// through the two points on either side of the first one over the
// limit gives the crossing, kept within the span of those points; so
// no single noisy rung decides the result alone. When no point reaches the limit
// the top rung's rate is reported; when the low phase already exceeds
// it, its rate scaled by limit/p90.
func (st *serveStage) crossing(limitMs float64) float64 {
	var rates, logs []float64
	for _, g := range [][]*phase{st.low, st.high} {
		r, p := p90(g)
		rates, logs = append(rates, r), append(logs, math.Log(p))
	}
	for _, ph := range st.ladder {
		r, p := p90([]*phase{ph})
		rates, logs = append(rates, r), append(logs, math.Log(p))
	}
	return crossingOf(rates, monotone(logs), math.Log(limitMs))
}

// crossingOf finds where the non-decreasing logs reach limit (see
// crossing).
func crossingOf(rates, logs []float64, limit float64) float64 {
	i := 0
	for i < len(logs) && logs[i] <= limit {
		i++
	}
	switch {
	case i == len(logs):
		return rates[len(rates)-1]
	case i == 0:
		return rates[0] * math.Exp(limit-logs[0])
	case math.IsInf(logs[i], 1):
		return rates[i-1]
	}
	var n, sx, sy, sxx, sxy float64
	for j := max(0, i-2); j < min(len(logs), i+2); j++ {
		if math.IsInf(logs[j], 1) {
			continue
		}
		n++
		sx += rates[j]
		sy += logs[j]
		sxx += rates[j] * rates[j]
		sxy += rates[j] * logs[j]
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if n < 2 || !(slope > 0) {
		f := (limit - logs[i-1]) / (logs[i] - logs[i-1])
		return rates[i-1] + f*(rates[i]-rates[i-1])
	}
	x := (limit - (sy-slope*sx)/n) / slope
	return min(max(x, rates[max(0, i-2)]), rates[min(len(rates)-1, i+1)])
}

// monotone returns the non-decreasing sequence closest to xs in least
// squares (pool-adjacent-violators with equal weights).
func monotone(xs []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, x := range xs {
		bs = append(bs, block{x, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(xs))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

// checkResponses compares every answered query with the references:
// reached and max_dist against a sequential Dijkstra from the same
// source (computed once per source, after the stage), coreness against
// the sequential peel, and set-cover job sizes against the greedy bound.
func checkResponses(st *serveStage, in *inputs, core []uint32, cover coverRef) error {
	refs := distanceRefs(st, in)
	for _, ph := range st.phases() {
		for _, r := range ph.reqs {
			if !r.ok() {
				continue
			}
			switch r.kind {
			case kindCoreness:
				if r.resp.Coreness == nil || *r.resp.Coreness != core[r.v] {
					return fmt.Errorf("request %d %s: coreness %v, want %d", r.id, r.path(), r.resp.Coreness, core[r.v])
				}
			default:
				want := refs[r.v]
				got := distSummary{Reached: r.resp.Reached, MaxDist: r.resp.MaxDist}
				if got != want {
					return fmt.Errorf("request %d %s: reached/max_dist %d/%d, want %d/%d",
						r.id, r.path(), got.Reached, got.MaxDist, want.Reached, want.MaxDist)
				}
			}
		}
		for _, j := range ph.jobs {
			if j.err != nil {
				continue
			}
			if err := checkCoverSize(cover, coverEps, j.coverSize); err != nil {
				return fmt.Errorf("set-cover job: %w", err)
			}
		}
	}
	return nil
}

// distanceRefs runs the reference Dijkstra once for every source a
// distance query asked about, on NumCPU workers.
func distanceRefs(st *serveStage, in *inputs) map[graph.Vertex]distSummary {
	seen := map[graph.Vertex]bool{}
	var srcs []graph.Vertex
	for _, ph := range st.phases() {
		for _, r := range ph.reqs {
			if r.kind != kindCoreness && !seen[r.v] {
				seen[r.v] = true
				srcs = append(srcs, r.v)
			}
		}
	}
	sums := make([]distSummary, len(srcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(srcs)); i = next.Add(1) - 1 {
				sums[i] = summarize(refDistances(in.logW, srcs[i]))
			}
		}()
	}
	wg.Wait()
	refs := make(map[graph.Vertex]distSummary, len(srcs))
	for i, v := range srcs {
		refs[v] = sums[i]
	}
	return refs
}

// jobMedian is the median run time of the job phase's set-cover jobs.
func (st *serveStage) jobMedian() float64 {
	var xs []float64
	for _, j := range st.jobs.jobs {
		xs = append(xs, j.runTime.Seconds())
	}
	return median(xs)
}

// pooled is the latency digest of phs taken together.
func pooled(phs []*phase) latencySummary {
	var ds []time.Duration
	for _, ph := range phs {
		ds = append(ds, ph.latencies(nil)...)
	}
	return summarizeLatency(ds)
}

func (st *serveStage) perLayer(m metricSet) {
	low, high := pooled(st.low), pooled(st.high)
	m.set("serve.lat_p50_ms.low", low.P50)
	m.set("serve.lat_tail_ms.low", low.Tail)
	m.set("serve.lat_p50_ms.high", high.P50)
	m.set("serve.lat_tail_ms.high", high.Tail)
	m.set("serve.max_qps", st.maxQPS)
	m.set("serve.job_s", st.jobMedian())
	m.set("serve.queue_wait_ms", st.queueWaitMs)
	m.set("serve.handler_ms", st.handlerMs)
	m.set("serve.transport_ms", st.transportMs)
	var lookups []time.Duration
	for _, ph := range st.low {
		lookups = append(lookups, ph.latencies(func(r *request) bool { return r.kind == kindCoreness })...)
	}
	m.set("serve.lookup_p50_ms", summarizeLatency(lookups).P50)
	cacheLookups := st.hits + st.misses
	ratio := 0.0
	if cacheLookups > 0 {
		ratio = float64(st.hits) / float64(cacheLookups)
	}
	m.set("serve.cache_hit_ratio", ratio)
	m.set("serve.cache_lookups", float64(cacheLookups))
	m.set("serve.coalesced", float64(st.coalesced))
	var late []float64
	for _, ph := range append(append([]*phase(nil), st.low...), st.high...) {
		for _, d := range ph.late {
			late = append(late, ms(d))
		}
	}
	sort.Float64s(late)
	idx, _ := tailIndex(len(late))
	m.set("serve.gen_late_ms", late[idx])
	m.set("serve.alloc_mb", st.allocMB)
	m.set("runtime.mutex_wait_ms", st.mutexMs)
	m.set("obs.rounds_retained", float64(st.roundsRetained))
	m.set("obs.events_retained", float64(st.eventsRet))
}

// accounting is the open-loop bookkeeping printed for every phase.
func (ph *phase) accounting() map[string]any {
	lat := summarizeLatency(ph.latencies(nil))
	var late []float64
	for _, d := range ph.late {
		late = append(late, ms(d))
	}
	sort.Float64s(late)
	idx, _ := tailIndex(len(late))
	return map[string]any{
		"phase": ph.name, "rate": ph.rate, "attempted": len(ph.reqs) + len(ph.jobs), "failed": ph.failed,
		"p50_ms": lat.P50, "tail_ms": lat.Tail, "tail_pct": lat.TailPct, "samples": lat.N,
		"gen_late_tail_ms": late[idx], "backlog": ph.backlog, "backlog_growth": ph.backlogGrowth,
		"seconds": ph.end.Sub(ph.start).Seconds(),
	}
}
