// Package cbir implements the content-based image retrieval pipeline of
// the case study (paper §IV): offline k-means clustering of the feature
// database, the IVF (inverted-file) index, batched shortlist retrieval via
// the Eq. 1 decomposition, candidate gathering, KNN rerank via Eq. 2, and
// recall evaluation against exhaustive search.
package cbir

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/kernels"
)

// KMeansResult holds the offline clustering output.
type KMeansResult struct {
	Centroids  *kernels.Matrix // K × D
	Assign     []int           // N, cluster per point
	Iterations int             // iterations actually run
	Moved      int             // points that changed cluster in the last iteration
}

// KMeans runs exact Lloyd's algorithm with k-means++ style seeding (first
// centre uniform, subsequent centres from distinct random points) for at
// most maxIters iterations, stopping early on convergence. Deterministic
// for a given seed, at any GOMAXPROCS.
//
// The assignment step is a pruned nearest-centroid search (kernels.Nearest
// bounded by each point's distance to its previous centroid) split into
// row chunks across GOMAXPROCS goroutines; it picks the same centroid, tie
// for tie, as a full scalar scan. It deliberately does not use the Eq. 1
// decomposition: ‖x‖²+‖c‖²−2⟨x,c⟩ reassociates the sum, which can flip
// near-tied assignments and with them the index and every recall figure.
// The update step stays serial so each centroid sums its points in order.
func KMeans(data *kernels.Matrix, k, maxIters int, seed int64) (*KMeansResult, error) {
	n, d := data.Rows, data.Cols
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cbir: kmeans k=%d invalid for n=%d", k, n)
	}
	if maxIters <= 0 {
		return nil, fmt.Errorf("cbir: kmeans needs maxIters >= 1")
	}
	rng := rand.New(rand.NewSource(seed))

	// Seed centroids from distinct points.
	centroids := kernels.NewMatrix(k, d)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		copy(centroids.Row(c), data.Row(perm[c]))
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	res := &KMeansResult{Centroids: centroids, Assign: assign}

	for iter := 0; iter < maxIters; iter++ {
		moved := assignRows(data, centroids, assign)
		res.Iterations = iter + 1
		res.Moved = moved
		if moved == 0 {
			break
		}
		// Update step.
		for i := range centroids.Data {
			centroids.Data[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			crow := centroids.Row(c)
			drow := data.Row(i)
			for j := range crow {
				crow[j] += drow[j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random point.
				copy(centroids.Row(c), data.Row(rng.Intn(n)))
				continue
			}
			inv := 1 / float32(counts[c])
			crow := centroids.Row(c)
			for j := range crow {
				crow[j] *= inv
			}
		}
	}
	return res, nil
}

// minRowsPerWorker keeps the assignment step serial below two chunks of
// this many rows, where starting goroutines would cost more than it saves.
const minRowsPerWorker = 2048

// assignRows points every row of data at its nearest centroid (lowest
// index on ties) and returns how many rows changed cluster. Each row's
// result is independent of the chunking and the count is an integer sum,
// so the outcome does not depend on the worker count.
func assignRows(data, centroids *kernels.Matrix, assign []int) int {
	n := data.Rows
	workers := min(runtime.GOMAXPROCS(0), n/minRowsPerWorker)
	if workers <= 1 {
		return assignRange(data, centroids, assign, 0, n)
	}
	moved := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			moved[w] = assignRange(data, centroids, assign, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
	total := 0
	for _, m := range moved {
		total += m
	}
	return total
}

// assignRange assigns rows [lo, hi), bounding each search by the row's
// distance to its previous centroid.
func assignRange(data, centroids *kernels.Matrix, assign []int, lo, hi int) int {
	moved := 0
	inf := float32(math.Inf(1))
	for i := lo; i < hi; i++ {
		row := data.Row(i)
		bound := inf
		if prev := assign[i]; prev >= 0 {
			bound = kernels.SquaredL2(row, centroids.Row(prev))
		}
		if best, _ := kernels.Nearest(centroids, row, bound); best != assign[i] {
			assign[i] = best
			moved++
		}
	}
	return moved
}
