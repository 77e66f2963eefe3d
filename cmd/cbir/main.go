// Command cbir runs the complete content-based image retrieval case study
// end to end: the functional pipeline (real CNN feature extraction on
// synthetic images, k-means IVF index, shortlist retrieval, KNN rerank,
// recall against exhaustive search) coupled with the ReACH simulator's
// timing and energy for the same batch on the paper's optimized mapping.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cbir"
	"repro/internal/cnn"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 1<<15, "functional database size")
		clusters = flag.Int("clusters", 64, "IVF clusters (k-means k)")
		batch    = flag.Int("batch", 16, "query batch size")
		probes   = flag.Int("probes", 8, "shortlisted clusters per query")
		cands    = flag.Int("candidates", 2048, "rerank candidates per query")
		topk     = flag.Int("k", 10, "results per query")
		seed     = flag.Int64("seed", 42, "deterministic seed")
	)
	flag.Parse()

	if err := run(*n, *clusters, *batch, *probes, *cands, *topk, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "cbir:", err)
		os.Exit(1)
	}
}

func run(n, clusters, batch, probes, cands, topk int, seed int64) error {
	// ---- Offline stage: dataset + IVF index -----------------------------
	fmt.Printf("building synthetic dataset: %d vectors, D=96, %d natural clusters\n", n, clusters)
	ds := workload.Synthetic(workload.SyntheticParams{
		N: n, D: 96, Clusters: clusters, Spread: 0.08, Seed: seed,
	})
	fmt.Printf("clustering with k-means (k=%d)...\n", clusters)
	index, err := cbir.BuildIndex(ds.Vectors, clusters, 25, seed+1)
	if err != nil {
		return err
	}
	lo, med, hi := index.ListSizeStats()
	fmt.Printf("index built: cluster sizes min/median/max = %d/%d/%d\n", lo, med, hi)

	// ---- Online stage: feature extraction (real CNN forward passes) -----
	fmt.Printf("extracting features from %d synthetic query images (MiniVGG)...\n", batch)
	net, err := cnn.NewNetwork(cnn.MiniVGG(32, 128), seed+2)
	if err != nil {
		return err
	}
	fe := cnn.NewFeatureExtractor(net, 96, seed+3)
	images := workload.Images(batch, 3, 32, 32, seed+4)
	queries := kernels.NewMatrix(batch, 96)
	for i, img := range images {
		feat, err := fe.Extract(img)
		if err != nil {
			return err
		}
		copy(queries.Row(i), feat)
	}
	// The CNN features live in their own space; for the retrieval-quality
	// demonstration we query with perturbed database vectors, the standard
	// recall protocol (paper §IV-A).
	dbQueries := ds.Queries(batch, 0.02, seed+5)

	// ---- Shortlist retrieval + rerank -----------------------------------
	params := cbir.SearchParams{Probes: probes, Candidates: cands, K: topk}
	results, err := index.Search(dbQueries, params)
	if err != nil {
		return err
	}
	recall, err := cbir.Recall(index, dbQueries, params, cbir.GroundTruth(ds.Vectors, dbQueries, topk))
	if err != nil {
		return err
	}
	fmt.Printf("\nquery 0 top-%d: ", topk)
	for _, r := range results[0] {
		fmt.Printf("%d(%.4f) ", r.ID, r.Dist)
	}
	fmt.Printf("\nmean recall@%d vs exhaustive search: %.3f\n\n", topk, recall)

	// ---- Simulated deployment on ReACH ----------------------------------
	fmt.Println("simulating the same batch on the ReACH hierarchy (paper mapping)...")
	m := workload.DefaultModel()
	m.BatchSize = batch
	m.Probes = probes
	m.TopK = topk
	r13, err := experiments.Fig13(m)
	if err != nil {
		return err
	}
	if err := r13.Table().Render(os.Stdout); err != nil {
		return err
	}
	return nil
}
