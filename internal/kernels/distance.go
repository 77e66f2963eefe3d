package kernels

import (
	"container/heap"
	"fmt"
	"math"
)

// SquaredL2 computes ‖p − q‖² (paper Eq. 2), the similarity measure used by
// both shortlist retrieval and rerank.
func SquaredL2(p, q []float32) float32 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("kernels: SquaredL2 dim mismatch %d vs %d", len(p), len(q)))
	}
	var sum float32
	for i := range p {
		d := p[i] - q[i]
		sum += d * d
	}
	return sum
}

// Nearest returns the lowest-index row of rows with the smallest ‖row − q‖²
// and that distance, among rows whose distance does not exceed bound; it
// returns -1 when every row's does. Pass +Inf as bound for a plain
// nearest-row search, or the distance to a known row (a point's previous
// centroid) to prune: then Nearest returns the same row, bit for bit, as
// the naive arg-min loop seeded with row 0 (`best, bestD := 0, d(0)` and
// `d(c) < bestD` for c = 1…), whenever no distance is NaN.
//
// Each distance is accumulated exactly like SquaredL2: one float32
// accumulator, elements 0…D−1 in order. Rows go two at a time in lock step,
// so one row's dependent chain of adds overlaps the other's; the running
// sums are checked after every 8 elements and the pair abandoned once both
// exceed the current limit (bound, or the best full distance so far if
// smaller), and a finished row above the limit is dropped. That is exact:
// a float32 sum of non-negative terms never decreases, so a dropped row's
// full distance is strictly above a distance some row reaches, the row
// that wins a tie is never dropped (nor is one whose sum is NaN), and the
// survivors are compared in index order.
func Nearest(rows *Matrix, q []float32, bound float32) (int, float32) {
	d := len(q)
	if rows.Cols != d {
		panic(fmt.Sprintf("kernels: Nearest dim mismatch %d vs %d", rows.Cols, d))
	}
	best, bestD, lim := -1, float32(0), bound
	accept := func(c int, sum float32) {
		if sum > lim {
			return
		}
		if best < 0 || sum < bestD {
			best, bestD = c, sum
			if sum < lim {
				lim = sum
			}
		}
	}
	q = q[:d:d] // cap == len lets the compiler drop the block bounds checks
	n := rows.Rows
pairLoop:
	for c := 0; c < n; c += 2 {
		off0, off1 := c*d, c*d+d
		if c+1 == n {
			off1 = off0 // an odd last row is paired with itself
		}
		r0 := rows.Data[off0 : off0+d : off0+d]
		r1 := rows.Data[off1 : off1+d : off1+d]
		var s0, s1 float32
		j := 0
		for ; j+8 <= d; j += 8 {
			a := (*[8]float32)(r0[j : j+8])
			b := (*[8]float32)(r1[j : j+8])
			x := (*[8]float32)(q[j : j+8])
			d0 := a[0] - x[0]
			s0 += d0 * d0
			e0 := b[0] - x[0]
			s1 += e0 * e0
			d1 := a[1] - x[1]
			s0 += d1 * d1
			e1 := b[1] - x[1]
			s1 += e1 * e1
			d2 := a[2] - x[2]
			s0 += d2 * d2
			e2 := b[2] - x[2]
			s1 += e2 * e2
			d3 := a[3] - x[3]
			s0 += d3 * d3
			e3 := b[3] - x[3]
			s1 += e3 * e3
			d4 := a[4] - x[4]
			s0 += d4 * d4
			e4 := b[4] - x[4]
			s1 += e4 * e4
			d5 := a[5] - x[5]
			s0 += d5 * d5
			e5 := b[5] - x[5]
			s1 += e5 * e5
			d6 := a[6] - x[6]
			s0 += d6 * d6
			e6 := b[6] - x[6]
			s1 += e6 * e6
			d7 := a[7] - x[7]
			s0 += d7 * d7
			e7 := b[7] - x[7]
			s1 += e7 * e7
			if s0 > lim && s1 > lim {
				continue pairLoop
			}
		}
		for ; j < d; j++ {
			d0 := r0[j] - q[j]
			s0 += d0 * d0
			e0 := r1[j] - q[j]
			s1 += e0 * e0
		}
		accept(c, s0)
		if c+1 < n {
			accept(c+1, s1)
		}
	}
	return best, bestD
}

// SquaredNorm computes ‖v‖².
func SquaredNorm(v []float32) float32 {
	var sum float32
	for _, x := range v {
		sum += x * x
	}
	return sum
}

// BatchDistances implements the decomposition of paper Eq. 1:
//
//	dist[b][m] = ‖q_b‖² + ‖C_m‖² − 2⟨q_b, C_m⟩
//
// where queries is B×D, centroidsT is the D×M columnar centroid matrix and
// centroidNormSq the precomputed ‖C_m‖² vector. The bottleneck term
// ⟨Q, C⟩ is evaluated as one B×D × D×M GeMM — exactly how the shortlist
// kernel is structured on the FPGA — followed by the broadcast addition.
func BatchDistances(queries *Matrix, centroidsT *Matrix, centroidNormSq []float32) *Matrix {
	if queries.Cols != centroidsT.Rows {
		panic(fmt.Sprintf("kernels: BatchDistances dim mismatch D=%d vs %d", queries.Cols, centroidsT.Rows))
	}
	if len(centroidNormSq) != centroidsT.Cols {
		panic("kernels: centroid norm vector length mismatch")
	}
	dots := GeMM(queries, centroidsT) // B×M
	for b := 0; b < dots.Rows; b++ {
		qn := SquaredNorm(queries.Row(b))
		row := dots.Row(b)
		for m := range row {
			row[m] = qn + centroidNormSq[m] - 2*row[m]
		}
	}
	return dots
}

// Neighbor is one scored candidate.
type Neighbor struct {
	ID   int
	Dist float32
}

// neighborMaxHeap keeps the K smallest distances by storing a max-heap of
// size K: the root is the current worst of the best-K and is displaced by
// anything better.
type neighborMaxHeap []Neighbor

func (h neighborMaxHeap) Len() int      { return len(h) }
func (h neighborMaxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h neighborMaxHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist > h[j].Dist // max-heap on distance
	}
	return h[i].ID > h[j].ID // deterministic tie-break
}
func (h *neighborMaxHeap) Push(x any) { *h = append(*h, x.(Neighbor)) }
func (h *neighborMaxHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK is the streaming partial-sort selector the rerank and shortlist
// kernels use: feed it scored candidates, read the best K at the end.
type TopK struct {
	k int
	h neighborMaxHeap
}

// NewTopK creates a selector of the K nearest (smallest-distance) items.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("kernels: TopK needs k >= 1")
	}
	return &TopK{k: k, h: make(neighborMaxHeap, 0, k+1)}
}

// Offer considers one candidate.
func (t *TopK) Offer(id int, dist float32) {
	if len(t.h) < t.k {
		heap.Push(&t.h, Neighbor{ID: id, Dist: dist})
		return
	}
	worst := t.h[0]
	if dist < worst.Dist || (dist == worst.Dist && id < worst.ID) {
		t.h[0] = Neighbor{ID: id, Dist: dist}
		heap.Fix(&t.h, 0)
	}
}

// Merge offers every result of another selector — the "Collect" reduction
// across near-storage accelerator instances.
func (t *TopK) Merge(other *TopK) {
	for _, n := range other.h {
		t.Offer(n.ID, n.Dist)
	}
}

// Results returns the selected neighbours sorted by ascending distance
// (ties by ascending ID). The selector remains usable afterwards.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, len(t.h))
	copy(out, t.h)
	// Simple insertion sort: K is small (10 in the case study).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// BruteForceKNN scans the whole database (row-major vectors) and returns
// the K nearest to q — the exhaustive-search ground truth used for recall
// evaluation.
func BruteForceKNN(db *Matrix, q []float32, k int) []Neighbor {
	sel := NewTopK(k)
	for i := 0; i < db.Rows; i++ {
		sel.Offer(i, SquaredL2(db.Row(i), q))
	}
	return sel.Results()
}

// RecallAtK reports |found ∩ truth| / |truth| — the retrieval quality
// metric the paper argues NDP preserves (vs. lossy compression).
func RecallAtK(found, truth []Neighbor) float64 {
	if len(truth) == 0 {
		return math.NaN()
	}
	set := make(map[int]bool, len(truth))
	for _, n := range truth {
		set[n.ID] = true
	}
	hit := 0
	for _, n := range found {
		if set[n.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
