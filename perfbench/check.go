package main

// Independent references for the outputs the benchmark checks. Nothing
// here calls into the program under test: each reference is a plain
// sequential algorithm or a certificate written against the CSR
// accessors alone, so a fault in the kernels cannot hide in its own
// oracle.

import (
	"container/heap"
	"fmt"
	"math"

	"julienne/internal/graph"
)

// unreachable mirrors the kernels' public encoding of an unreached
// vertex in a distance vector.
const unreachable int64 = -1

// refCoreness computes coreness by sequential bucket-queue peeling
// (Batagelj–Zaveršnik): vertices sit in buckets by current degree and
// the minimum bucket is peeled one vertex at a time.
func refCoreness(g graph.Graph) []uint32 {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.Vertex(v))
		maxDeg = max(maxDeg, deg[v])
	}
	// bin[d] is the start of degree-d vertices in vert; pos[v] is v's
	// index in vert.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int, n)
	pos := make([]int, n)
	next := append([]int(nil), bin...)
	for v, d := range deg {
		pos[v] = next[d]
		vert[pos[v]] = v
		next[d]++
	}
	for i := 0; i < n; i++ {
		v := vert[i]
		g.OutNeighbors(graph.Vertex(v), func(u graph.Vertex, _ graph.Weight) bool {
			if du := deg[u]; du > deg[v] {
				// Swap u with the first vertex of its bin, then shrink
				// the bin so u drops to degree du-1.
				pu, pw := pos[u], bin[du]
				w := vert[pw]
				if int(u) != w {
					vert[pu], vert[pw] = w, int(u)
					pos[w], pos[u] = pu, pw
				}
				bin[du]++
				deg[u]--
			}
			return true
		})
	}
	out := make([]uint32, n)
	for v, d := range deg {
		out[v] = uint32(d)
	}
	return out
}

// checkCoreness compares a coreness vector with the reference.
func checkCoreness(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("coreness has %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("coreness[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkDistances verifies an exact shortest-path certificate for a
// symmetric graph with positive weights: d(src) = 0; no edge can
// improve a distance (d(v) ≤ d(u)+w, and no reached vertex has an
// unreached neighbor); every other reached vertex has a tight
// predecessor (d(u)+w = d(v)). Positive weights make tight-predecessor
// chains end at src, so each d(v) is a path length and cannot be
// improved: the vector is the exact distance vector.
func checkDistances(g graph.Graph, src graph.Vertex, dist []int64) error {
	n := g.NumVertices()
	if len(dist) != n {
		return fmt.Errorf("distance vector has %d entries, want %d", len(dist), n)
	}
	if dist[src] != 0 {
		return fmt.Errorf("d(src=%d) = %d, want 0", src, dist[src])
	}
	for vi := 0; vi < n; vi++ {
		v := graph.Vertex(vi)
		dv := dist[v]
		if dv < unreachable {
			return fmt.Errorf("d(%d) = %d is negative", v, dv)
		}
		tight := v == src
		var err error
		g.OutNeighbors(v, func(u graph.Vertex, w graph.Weight) bool {
			du := dist[u]
			switch {
			case dv == unreachable && du != unreachable:
				err = fmt.Errorf("d(%d) unreached but neighbor %d has d=%d", v, u, du)
			case dv != unreachable && du == unreachable:
				err = fmt.Errorf("d(%d) = %d but neighbor %d unreached", v, dv, u)
			case dv != unreachable && du+int64(w) < dv:
				err = fmt.Errorf("edge (%d,%d,w=%d) improves d(%d) = %d to %d", u, v, w, v, dv, du+int64(w))
			case dv != unreachable && du+int64(w) == dv:
				tight = true
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		if dv != unreachable && !tight {
			return fmt.Errorf("d(%d) = %d has no tight predecessor", v, dv)
		}
	}
	return nil
}

// distSummary is what /sssp and /wbfs report about a distance vector.
type distSummary struct {
	Reached int
	MaxDist int64
}

func summarize(dist []int64) distSummary {
	var s distSummary
	for _, d := range dist {
		if d != unreachable {
			s.Reached++
			s.MaxDist = max(s.MaxDist, d)
		}
	}
	return s
}

// refDistances is a sequential binary-heap Dijkstra.
func refDistances(g graph.Graph, src graph.Vertex) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	pq := &distHeap{{v: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		g.OutNeighbors(it.v, func(u graph.Vertex, w graph.Weight) bool {
			if nd := it.d + int64(w); nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, distItem{v: u, d: nd})
			}
			return true
		})
	}
	for i, d := range dist {
		if d == math.MaxInt64 {
			dist[i] = unreachable
		}
	}
	return dist
}

type distItem struct {
	v graph.Vertex
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// coverRef holds what the set-cover checks need about an instance
// whose sets are vertices [0, numSets) and whose elements are their
// neighbors.
type coverRef struct {
	numSets  int
	greedy   int     // size of the sequential greedy cover
	maxSet   int     // Δ, the largest set size
	harmonic float64 // H_Δ
}

// refCover runs the sequential greedy set cover (always pick the set
// covering the most uncovered elements) with lazy re-evaluation.
func refCover(g graph.Graph, numSets int) coverRef {
	covered := make([]bool, g.NumVertices())
	h := &coverHeap{}
	ref := coverRef{numSets: numSets}
	for s := 0; s < numSets; s++ {
		d := g.OutDegree(graph.Vertex(s))
		ref.maxSet = max(ref.maxSet, d)
		if d > 0 {
			*h = append(*h, coverItem{set: graph.Vertex(s), gain: d})
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		it := heap.Pop(h).(coverItem)
		gain := 0
		g.OutNeighbors(it.set, func(e graph.Vertex, _ graph.Weight) bool {
			if !covered[e] {
				gain++
			}
			return true
		})
		if gain == 0 {
			continue
		}
		if gain < it.gain {
			heap.Push(h, coverItem{set: it.set, gain: gain})
			continue
		}
		ref.greedy++
		g.OutNeighbors(it.set, func(e graph.Vertex, _ graph.Weight) bool {
			covered[e] = true
			return true
		})
	}
	for i := 1; i <= ref.maxSet; i++ {
		ref.harmonic += 1 / float64(i)
	}
	return ref
}

// sizeBound is the largest cover size the (1+ε)·H_Δ guarantee allows
// against the greedy cover (greedy ≥ OPT, so the bound is implied by
// the kernel's own guarantee against OPT).
func (r coverRef) sizeBound(eps float64) int {
	return int(math.Floor((1 + eps) * r.harmonic * float64(r.greedy)))
}

// checkCover verifies that inCover is a valid cover of every element
// some set covers, that size counts it, and that size is within the
// (1+ε)·H_Δ bound of the greedy reference.
func checkCover(g graph.Graph, ref coverRef, eps float64, inCover []bool, size int) error {
	if len(inCover) != ref.numSets {
		return fmt.Errorf("cover flags have %d entries, want %d", len(inCover), ref.numSets)
	}
	chosen := 0
	covered := make([]bool, g.NumVertices())
	for s, in := range inCover {
		if !in {
			continue
		}
		chosen++
		g.OutNeighbors(graph.Vertex(s), func(e graph.Vertex, _ graph.Weight) bool {
			covered[e] = true
			return true
		})
	}
	if chosen != size {
		return fmt.Errorf("cover size %d but %d sets chosen", size, chosen)
	}
	for s := 0; s < ref.numSets; s++ {
		var err error
		g.OutNeighbors(graph.Vertex(s), func(e graph.Vertex, _ graph.Weight) bool {
			if !covered[e] {
				err = fmt.Errorf("element %d (in set %d) is not covered", e, s)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return checkCoverSize(ref, eps, size)
}

// checkCoverSize checks a reported cover size against the bound.
func checkCoverSize(ref coverRef, eps float64, size int) error {
	if size < 1 && ref.greedy > 0 {
		return fmt.Errorf("cover size %d for a non-empty instance", size)
	}
	if b := ref.sizeBound(eps); size > b {
		return fmt.Errorf("cover size %d exceeds (1+%g)·H_%d·greedy = %d (greedy %d)",
			size, eps, ref.maxSet, b, ref.greedy)
	}
	return nil
}

type coverItem struct {
	set  graph.Vertex
	gain int
}

type coverHeap []coverItem

func (h coverHeap) Len() int { return len(h) }
func (h coverHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].set < h[j].set
}
func (h coverHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *coverHeap) Push(x any)   { *h = append(*h, x.(coverItem)) }
func (h *coverHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
