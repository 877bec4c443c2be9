package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lowerDecile returns the value of rank ⌈n/10⌉ in ascending order
// (the third of 30); 0 for no values.
func lowerDecile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+9)/10-1]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so the steadiness report agrees with any
// check computed that way.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailIndex returns the 0-based rank of the highest percentile that
// has at least ten samples beyond it, and that percentile. With fewer
// than forty samples there is no tail worth the name: the median is
// used instead.
func tailIndex(n int) (idx int, pct float64) {
	if n < 40 {
		return (n - 1) / 2, 50
	}
	idx = n - 11
	return idx, 100 * float64(idx+1) / float64(n)
}

// latencySummary is a phase's latency digest in milliseconds.
type latencySummary struct {
	N                  int
	P50, Tail, TailPct float64
}

func summarizeLatency(ds []time.Duration) latencySummary {
	if len(ds) == 0 {
		return latencySummary{}
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	sort.Float64s(s)
	idx, pct := tailIndex(len(s))
	return latencySummary{N: len(s), P50: median(s), Tail: s[idx], TailPct: pct}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Runtime metrics sampled around phases. The /cpu/classes values are
// folded in by the runtime at the end of each GC cycle, so callers that
// need them fresh force a collection before reading.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmIdleCPU    = "/cpu/classes/idle:cpu-seconds"
	rmMutexWait  = "/sync/mutex/wait/total:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmLiveHeap   = "/gc/heap/live:bytes"
)

var rmNames = []string{rmAllocBytes, rmAllocObjs, rmGCCycles, rmGCCPU, rmIdleCPU, rmMutexWait, rmSchedLat, rmLiveHeap}

// rtSample is one reading of the runtime metrics above.
type rtSample struct {
	scalar map[string]float64
	sched  *metrics.Float64Histogram
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rmNames))
	for i, n := range rmNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := rtSample{scalar: make(map[string]float64, len(ss))}
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out.scalar[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out.scalar[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			out.sched = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return out
}

// delta returns the growth of a cumulative scalar metric.
func (a rtSample) delta(b rtSample, name string) float64 { return b.scalar[name] - a.scalar[name] }

// schedCounts returns the scheduling-latency histogram counts added
// between a and b.
func (a rtSample) schedCounts(b rtSample) []uint64 {
	if a.sched == nil || b.sched == nil {
		return nil
	}
	out := make([]uint64, len(b.sched.Counts))
	for i := range out {
		out[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	return out
}

// histQuantile returns the upper edge of the bucket holding the
// q-quantile of a runtime/metrics histogram (bucket edges from ref).
func histQuantile(ref *metrics.Float64Histogram, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || ref == nil {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			up := ref.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = ref.Buckets[i]
			}
			return up
		}
	}
	return 0
}
