package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// traffic renders every kind of traffic the workloads draw from one
// seed, at a small size, as bytes.
func traffic(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	quickstart := aidsDB(quickstartDB)
	out := map[string][]byte{
		"user seeds": []byte(fmt.Sprint(userSeeds(seed, clients, 5))),
	}
	var qs bytes.Buffer
	for _, q := range muQuerySet(quickstart, seed, 0) {
		if err := graph.WriteGraph(&qs, q); err != nil {
			t.Fatal(err)
		}
	}
	out["mu queries"] = qs.Bytes()
	reads, err := readQueries(quickstart, seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	out["reads"] = bytes.Join(reads, nil)
	return out
}

func TestTrafficRepeatsPerSeedAndDiffersAcrossSeeds(t *testing.T) {
	a, again, other := traffic(t, 7), traffic(t, 7), traffic(t, 8)
	for kind, buf := range a {
		if len(buf) == 0 {
			t.Errorf("%s: empty", kind)
		}
		if !bytes.Equal(buf, again[kind]) {
			t.Errorf("%s: seed 7 generated different bytes twice", kind)
		}
		if bytes.Equal(buf, other[kind]) {
			t.Errorf("%s: seeds 7 and 8 generated identical bytes", kind)
		}
	}
}

// data renders the fixed data of the workloads: the mined database, the
// network and the first two refresh batches.
func data(t *testing.T) map[string][]byte {
	t.Helper()
	var db bytes.Buffer
	if err := graph.Write(&db, aidsDB(quickstartDB)); err != nil {
		t.Fatal(err)
	}
	net, err := networkText(networkData)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{"database": db.Bytes(), "network": net}
	for i := 0; i < 2; i++ {
		batch, err := refreshBatch(batchData + i)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("batch %d", i)] = batch
	}
	return out
}

func TestDataIsFixed(t *testing.T) {
	a, again := data(t), data(t)
	for kind, buf := range a {
		if len(buf) == 0 || !bytes.Equal(buf, again[kind]) {
			t.Errorf("%s: empty, or different bytes when generated twice", kind)
		}
	}
	if bytes.Equal(a["batch 0"], a["batch 1"]) {
		t.Error("refresh batches 0 and 1 are identical")
	}
	if aidsDB(quickstartDB).Graph(0) == aidsDB(quickstartDB).Graph(0) {
		t.Error("aidsDB returned shared graphs; a second selection of them would not be cold")
	}
}

func TestSubSeedStreamsAreDistinct(t *testing.T) {
	seen := make(map[int64]string)
	for stream := streamQueries; stream <= streamWarmup; stream++ {
		for i := 0; i < 100; i++ {
			s := subSeed(1, stream, i)
			key := fmt.Sprintf("stream %d item %d", stream, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("%s and %s share seed %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestOpsForIsFixedByArguments(t *testing.T) {
	if got := opsFor(12, 2.4, 3); got != 5 {
		t.Errorf("opsFor(12, 2.4, 3) = %d, want 5", got)
	}
	if got := opsFor(1, 2.4, 3); got != 3 {
		t.Errorf("opsFor(1, 2.4, 3) = %d, want the minimum 3", got)
	}
}
