package cbir

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/workload"
)

// referenceKMeans is the naive Lloyd's loop KMeans must reproduce bit for
// bit: a full scalar scan of every centroid per point, serial.
func referenceKMeans(data *kernels.Matrix, k, maxIters int, seed int64) *KMeansResult {
	n, d := data.Rows, data.Cols
	rng := rand.New(rand.NewSource(seed))
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
		moved := 0
		for i := 0; i < n; i++ {
			row := data.Row(i)
			best, bestD := 0, kernels.SquaredL2(row, centroids.Row(0))
			for c := 1; c < k; c++ {
				if dist := kernels.SquaredL2(row, centroids.Row(c)); dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				moved++
				assign[i] = best
			}
		}
		res.Iterations = iter + 1
		res.Moved = moved
		if moved == 0 {
			break
		}
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
			for j, x := range data.Row(i) {
				crow[j] += x
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
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
	return res
}

// gridData returns n points with small-integer coordinates, each repeated
// dup times: exact distance ties everywhere, and identical seed centroids.
func gridData(n, d, dup int, seed int64) *kernels.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := kernels.NewMatrix(n, d)
	for i := 0; i < n; i += dup {
		for j := 0; j < d; j++ {
			m.Set(i, j, float32(rng.Intn(3)))
		}
		for r := 1; r < dup && i+r < n; r++ {
			copy(m.Row(i+r), m.Row(i))
		}
	}
	return m
}

// TestKMeansMatchesReference pins the pruned, row-parallel assignment to
// the naive loop: same centroid bits, assignments, iteration count and
// moved count, at D with no 8-wide block, blocks only and a tail, on tied
// and duplicate points, with empty clusters re-seeded, serial and split
// across workers.
func TestKMeansMatchesReference(t *testing.T) {
	synth := func(n, d int) *kernels.Matrix {
		return workload.Synthetic(workload.SyntheticParams{
			N: n, D: d, Clusters: 12, Spread: 0.1, Seed: int64(n + d),
		}).Vectors
	}
	cases := []struct {
		name     string
		data     *kernels.Matrix
		k, iters int
	}{
		{"D4", synth(2*minRowsPerWorker+37, 4), 24, 12},
		{"D8", synth(2*minRowsPerWorker+5, 8), 16, 12},
		{"D13", synth(2*minRowsPerWorker+11, 13), 20, 10},
		{"D64", synth(2*minRowsPerWorker+3, 64), 32, 8},
		{"duplicates", gridData(2*minRowsPerWorker+100, 13, 4, 3), 12, 10},
		{"k near n", synth(40, 13), 38, 10},
		{"k near n ties", gridData(48, 8, 2, 5), 44, 10},
	}
	for _, procs := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				want := referenceKMeans(tc.data, tc.k, tc.iters, 9)
				got, err := KMeans(tc.data, tc.k, tc.iters, 9)
				if err != nil {
					t.Fatal(err)
				}
				if got.Iterations != want.Iterations || got.Moved != want.Moved {
					t.Fatalf("iterations/moved = %d/%d, reference %d/%d",
						got.Iterations, got.Moved, want.Iterations, want.Moved)
				}
				for i := range want.Assign {
					if got.Assign[i] != want.Assign[i] {
						t.Fatalf("point %d assigned to %d, reference %d", i, got.Assign[i], want.Assign[i])
					}
				}
				for i, w := range want.Centroids.Data {
					if g := got.Centroids.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("centroid element %d = %v, reference %v", i, g, w)
					}
				}
			})
		}
	}
}

// TestPQEncodeMatchesReference pins PQ.Encode to the naive per-subspace
// arg-min over every codebook entry (lowest index on ties).
func TestPQEncodeMatchesReference(t *testing.T) {
	for _, train := range []*kernels.Matrix{
		workload.Synthetic(workload.SyntheticParams{N: 1500, D: 24, Clusters: 8, Spread: 0.1, Seed: 4}).Vectors,
		gridData(600, 24, 3, 8),
	} {
		for _, sub := range []int{2, 3, 6} { // subspace dims 12, 8, 4
			pq, err := TrainPQ(train, PQParams{Subspaces: sub, CentroidsPerSub: 64, KMeansIters: 6, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < train.Rows; i++ {
				v := train.Row(i)
				got := pq.Encode(v)
				for s := 0; s < pq.m; s++ {
					x := v[s*pq.subDim : (s+1)*pq.subDim]
					best, bestD := 0, float32(math.MaxFloat32)
					for c := 0; c < pq.k; c++ {
						if d := kernels.SquaredL2(x, pq.books[s].Row(c)); d < bestD {
							best, bestD = c, d
						}
					}
					if int(got[s]) != best {
						t.Fatalf("subspaces=%d vector %d subspace %d: code %d, reference %d", sub, i, s, got[s], best)
					}
				}
			}
		}
	}
}
