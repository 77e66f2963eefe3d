package cbir

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/workload"
)

func benchIndex(b *testing.B) (*Index, *kernels.Matrix) {
	b.Helper()
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 1 << 14, D: 96, Clusters: 64, Spread: 0.08, Seed: 4,
	})
	ix, err := BuildIndex(ds.Vectors, 64, 15, 5)
	if err != nil {
		b.Fatal(err)
	}
	return ix, ds.Queries(16, 0.02, 6)
}

// BenchmarkIVFSearch measures the functional shortlist→rerank pipeline
// (queries per op = 16).
func BenchmarkIVFSearch(b *testing.B) {
	ix, queries := benchIndex(b)
	p := SearchParams{Probes: 8, Candidates: 1024, K: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(queries, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortlistGeMM isolates the Eq. 1 batched distance kernel.
func BenchmarkShortlistGeMM(b *testing.B) {
	ix, queries := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Shortlist(queries, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteForce is the exhaustive-search baseline the paper argues
// is impractical at scale (here it is merely slow).
func BenchmarkBruteForce(b *testing.B) {
	ix, queries := benchIndex(b)
	q := queries.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.BruteForceKNN(ix.Vectors, q, 10)
	}
}

// BenchmarkKMeans measures the offline clustering step: a small case, the
// recallsweep experiment's IVF build (2^15 × 64-D, k=256, 15 iterations)
// and the shape of one motivation PQ subspace (8192 × 4-D, k=256, 12
// iterations).
func BenchmarkKMeans(b *testing.B) {
	cases := []struct {
		name     string
		data     workload.SyntheticParams
		k, iters int
		seed     int64
	}{
		{"small", workload.SyntheticParams{N: 4096, D: 32, Clusters: 16, Spread: 0.08, Seed: 7}, 16, 10, 8},
		{"recallsweep", workload.SyntheticParams{N: 1 << 15, D: 64, Clusters: 64, Spread: 0.1, Seed: 4242}, 256, 15, 17},
		{"pq-train", workload.SyntheticParams{N: 8192, D: 4, Clusters: 32, Spread: 0.12, Seed: 2020}, 256, 12, 12},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			data := workload.Synthetic(tc.data).Vectors
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := KMeans(data, tc.k, tc.iters, tc.seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPQEncode measures code generation throughput.
func BenchmarkPQEncode(b *testing.B) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 2048, D: 96, Clusters: 16, Spread: 0.08, Seed: 9,
	})
	pq, err := TrainPQ(ds.Vectors, DefaultPQParams())
	if err != nil {
		b.Fatal(err)
	}
	v := ds.Vectors.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pq.Encode(v)
	}
}
