package main

import (
	"bytes"
	"fmt"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// The inputs of a run come in two kinds. The data the program works on
// (the database mined, the network loaded, the refresh batches) is fixed,
// generated from fixed dataset seeds: it is part of a workload's
// definition. One database or network makes up to three times the work
// of the next, so per-run medians over seed-drawn data would spread
// across seeds by more than any useful bound. The traffic (the search
// reads, the formulating users, the query workloads μ is measured over)
// is drawn from the run's seed.
//
// Each kind of traffic draws its seeds from its own stream, so adding ops
// to one workload never changes another's traffic.
const (
	streamQueries = iota + 1
	streamReads
	streamUsers
	streamWarmup
)

// subSeed derives the i-th seed of a stream from the run's seed with the
// splitmix64 finalizer: well-spread, and independent of the order in
// which inputs are generated.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// Every workload runs the quickstart configuration the serving gates use:
// 200 molecule-like graphs, b = (3, 8, 10), hybrid MCCS clustering with
// N = 20 and minimum support 0.1.
const (
	dbGraphs     = 200
	quickstartDB = 1 // dataset seed of the quickstart database
	configSeed   = 42
	minSupport   = 0.1
	clusterN     = 20
)

var budget = core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10}

func quickstartConfig() catapult.Config {
	return catapult.Config{
		Budget:     budget,
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: clusterN, MinSupport: minSupport},
		Seed:       configSeed,
	}
}

// Query workloads for μ: connected subgraphs of 4 to 40 edges, as in the
// paper's Sec 6.1 setting that the experiments use.
const (
	muQueries   = 1000
	muQueryMin  = 4
	muQueryMax  = 40
	readMinSize = 3
	readMaxSize = 8
)

// Dataset seeds of the fixed data. The i-th refresh batch has dataset
// seed batchData+i; warm-up ops run on data of their own.
const (
	warmupData  = 0
	networkData = 1
	batchData   = 1000
)

// aidsDB generates the quickstart-size AIDS-like database with the given
// dataset seed. Every call builds new graphs, which have none of the
// per-graph state (frozen forms, canonical labels) an earlier selection
// memoized, so selecting them is a cold mine.
func aidsDB(dataSeed int) *graph.DB {
	return dataset.AIDSLike(dbGraphs, int64(dataSeed))
}

// muQuerySet returns the seeded query workload μ is measured over.
func muQuerySet(db *graph.DB, seed int64, i int) []*graph.Graph {
	return dataset.Queries(db, muQueries, muQueryMin, muQueryMax, subSeed(seed, streamQueries, i))
}

// The R-MAT network size: large enough that selection over its region
// summaries dominates an op, small enough that a dozen ops fit one run.
// About six edges per vertex keeps it dense enough to partition
// meaningfully, the density the large-network gate keeps too.
const (
	networkEdges    = 100_000
	networkVertices = 1 << 14
)

// networkText renders the R-MAT network with the given dataset seed as
// SNAP text, the input LoadNetworkCtx streams.
func networkText(dataSeed int) ([]byte, error) {
	var buf bytes.Buffer
	err := dataset.WriteNetworkText(&buf, dataset.NetworkConfig{
		Name:     fmt.Sprintf("rmat-%d", dataSeed),
		Vertices: networkVertices,
		Edges:    networkEdges,
		Labels:   8,
		Seed:     int64(dataSeed),
	})
	return buf.Bytes(), err
}

// batchGraphs is the size of one refresh batch.
const batchGraphs = 5

// refreshBatch renders the AIDS-like refresh batch with the given dataset
// seed in the transaction text format POST /v1/tenants/{id}/refresh
// accepts.
func refreshBatch(dataSeed int) ([]byte, error) {
	var buf bytes.Buffer
	err := graph.Write(&buf, dataset.AIDSLike(batchGraphs, int64(dataSeed)))
	return buf.Bytes(), err
}

// readQueries renders n seeded search queries over db, each a random
// connected subgraph of one of its graphs, as transaction-text bodies.
func readQueries(db *graph.DB, seed int64, n int) ([][]byte, error) {
	qs := dataset.Queries(db, n, readMinSize, readMaxSize, subSeed(seed, streamReads, 0))
	out := make([][]byte, len(qs))
	for i, q := range qs {
		var buf bytes.Buffer
		if err := graph.WriteGraph(&buf, q); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// userSeeds returns the replay seed of each session each user runs.
func userSeeds(seed int64, users, sessions int) [][]int64 {
	out := make([][]int64, users)
	for u := range out {
		out[u] = make([]int64, sessions)
		for t := range out[u] {
			out[u][t] = subSeed(seed, streamUsers, u<<24|t)
		}
	}
	return out
}
