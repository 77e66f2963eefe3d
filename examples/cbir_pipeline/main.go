// cbir_pipeline reproduces the paper's Listings 2 and 3 in full: the
// billion-scale CBIR meta-accelerator deployed across all three compute
// levels, run for a stream of query batches, with the functional retrieval
// layer (real k-means index, real distance computations, recall check)
// running beside the simulated hierarchy.
//
//	go run ./examples/cbir_pipeline [-batches 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cbir"
	"repro/internal/workload"
	"repro/reach"
)

func main() {
	batches := flag.Int("batches", 8, "query batches to stream through the pipeline")
	flag.Parse()

	m := workload.DefaultModel()

	// ======================= config.h (Listing 2) ========================
	sys, err := reach.NewSystem() // Table II: 1 on-chip, 4 near-mem, 4 near-storage
	if err != nil {
		log.Fatal(err)
	}

	// ReACH::Buffer — fixed data regions.
	if _, err := sys.CreateFixedBuffer("vgg16_param", reach.OnChip, m.CNN.CompressedParamBytes()); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sys.CreateFixedBufferAt("centroids", reach.NearMem, m.CentroidStoreBytes()/4, i); err != nil {
			log.Fatal(err)
		}
	}
	dbs := make([]*reach.Buffer, 4)
	for i := range dbs {
		dbs[i], err = sys.CreateFixedBufferAt(fmt.Sprintf("feature_db%d", i), reach.NearStor, m.FeatureStoreBytes()/4, i)
		if err != nil {
			log.Fatal(err)
		}
	}

	// ReACH::Stream — inter-level communication.
	input := mustStream(sys.CreateStream("Input", reach.CPU, reach.OnChip, reach.Pair, m.BatchImageBytes(), 2))
	features := mustStream(sys.CreateStream("Features", reach.OnChip, reach.NearMem, reach.BroadCast, m.BatchFeatureBytes(), 2))
	shortlists := mustStream(sys.CreateStream("Shortlists", reach.NearMem, reach.NearStor, reach.BroadCast, m.ShortlistResultBytesPerBatch(), 2))
	result := mustStream(sys.CreateStream("Result", reach.NearStor, reach.CPU, reach.Collect, m.ResultBytesPerBatch(), 2))

	// ReACH::ACC — register accelerators and bind arguments.
	cnnAcc, err := sys.RegisterAcc("VGG16-VU9P", reach.OnChip)
	if err != nil {
		log.Fatal(err)
	}
	must(cnnAcc.SetArg(0, input))
	must(cnnAcc.SetArg(2, features))
	cnnAcc.SetWork(reach.Work{
		Stage: "FeatureExtraction", MACs: m.FeatureMACsPerBatch(),
		SPMResident: true, OutputBytes: m.BatchFeatureBytes(),
	})

	var sls, knns []*reach.ACC
	for i := 0; i < 4; i++ {
		sl, err := sys.RegisterAcc("GEMM-ZCU9", reach.NearMem)
		if err != nil {
			log.Fatal(err)
		}
		must(sl.SetArg(0, features))
		must(sl.SetArg(2, shortlists))
		sl.SetWork(reach.Work{
			Stage: "ShortlistRetrieval",
			MACs:  m.ShortlistMACsPerBatch() / 4, StreamBytes: m.ShortlistScanBytesPerBatch() / 4,
			OutputBytes: m.ShortlistResultBytesPerBatch() / 4,
		})
		sls = append(sls, sl)

		knn, err := sys.RegisterAcc("KNN-ZCU9", reach.NearStor)
		if err != nil {
			log.Fatal(err)
		}
		must(knn.SetArg(0, shortlists))
		must(knn.SetArg(1, dbs[i]))
		must(knn.SetArg(2, result))
		knn.SetWork(reach.Work{
			Stage: "Rerank",
			MACs:  m.RerankMACsPerBatch() / 4, StreamBytes: m.RerankScanBytesPerBatch() / 4,
			Random: true, OutputBytes: m.ResultBytesPerBatch() / 4,
		})
		knns = append(knns, knn)
	}

	if err := sys.Deploy(); err != nil {
		log.Fatal(err)
	}

	// ============== functional retrieval (runs beside the sim) ===========
	fmt.Println("building the functional IVF index (scaled dataset)...")
	ds := workload.Synthetic(workload.SyntheticParams{N: 1 << 15, D: 96, Clusters: 64, Spread: 0.08, Seed: 7})
	index, err := cbir.BuildIndex(ds.Vectors, 64, 25, 8)
	if err != nil {
		log.Fatal(err)
	}
	params := cbir.SearchParams{Probes: m.Probes, Candidates: 2048, K: m.TopK}

	// ======================= host.cpp (Listing 3) ========================
	fmt.Printf("streaming %d query batches through the hierarchy...\n", *batches)
	start := sys.Now()
	var jobs []*reach.Job
	var recallSum float64
	for b := 0; b < *batches; b++ {
		// while (Input.enqueue(new_query_batch)) { ... }
		job, err := sys.Begin()
		if err != nil {
			log.Fatal(err)
		}
		must(job.Enqueue(input))  // Input.enqueue(new_query_batch)
		must(job.Execute(cnnAcc)) // cnn.execute(threadId)
		must(job.Broadcast(features))
		for _, sl := range sls {
			must(job.Execute(sl)) // shortlist on every AIM module
		}
		for _, knn := range knns {
			must(job.Execute(knn)) // knn0.execute, knn1.execute, ...
		}
		must(job.Collect(result)) // Result.collect()
		must(job.Commit())
		jobs = append(jobs, job)

		// The functional layer answers the same batch with real math.
		queries := ds.Queries(m.BatchSize, 0.02, int64(100+b))
		recall, err := cbir.Recall(index, queries, params, cbir.GroundTruth(ds.Vectors, queries, params.K))
		if err != nil {
			log.Fatal(err)
		}
		recallSum += recall
	}
	sys.Run()

	// ======================= results =====================================
	makespan := jobs[len(jobs)-1].FinishedAt() - start
	fmt.Printf("\nfirst batch latency : %v\n", jobs[0].Latency())
	fmt.Printf("steady-state period : %.1f ms/batch (pipelined by the GAM)\n",
		makespan.Seconds()*1000/float64(*batches))
	fmt.Printf("throughput          : %.2f batches/s, %.1f queries/s\n",
		float64(*batches)/makespan.Seconds(),
		float64(*batches*m.BatchSize)/makespan.Seconds())
	fmt.Printf("mean recall@%d       : %.3f (functional layer)\n", m.TopK, recallSum/float64(*batches))
	fmt.Println("\nenergy breakdown (J, whole run):")
	for comp, joules := range sys.Energy() {
		if joules > 0 {
			fmt.Printf("  %-20s %.2f\n", comp, joules)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustStream(st *reach.Stream, err error) *reach.Stream {
	if err != nil {
		log.Fatal(err)
	}
	return st
}
