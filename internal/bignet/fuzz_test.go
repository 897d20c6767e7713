package bignet

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// FuzzEdgeListLoader pins the text loader's robustness contract:
// arbitrary input — malformed lines, duplicate and self-loop edges, huge
// and negative IDs, binary junk — must never panic or error (the loader
// is lenient by design; only I/O and cancellation fail it), must yield a
// structurally valid Frozen (monotone offsets, sorted symmetric rows, no
// self-loops), and that Frozen must survive a binary round trip intact.
func FuzzEdgeListLoader(f *testing.F) {
	f.Add("1 2\n2 3\n3 1\n")
	f.Add("# comment\nv 1 a\nv 2 b\ne 1 2\n")
	f.Add("v 10 x\n10 10\n10 99\n99 10\n99999999999999999999 3\n")
	f.Add("-5 7\n7 -5\n+3 4\n")
	f.Add("e\nv\nv z\n1\nnot numbers\n\x00\xff\n")
	f.Add("1 2 extra fields ignored\ne 2 3 w=5\n")
	f.Fuzz(func(t *testing.T, input string) {
		fz, st, err := LoadEdgeListCtx(context.Background(), strings.NewReader(input), LoadOptions{})
		if err != nil {
			t.Fatalf("lenient loader errored on text input: %v", err)
		}
		validateFrozen(t, fz)
		if st.Edges != int64(fz.NumEdges()) || st.Vertices != int64(fz.NumVertices()) {
			t.Fatalf("stats disagree with graph: %+v vs %d/%d", st, fz.NumVertices(), fz.NumEdges())
		}

		var buf bytes.Buffer
		if err := WriteBinary(&buf, fz); err != nil {
			t.Fatalf("binary write of valid frozen: %v", err)
		}
		g, _, err := LoadBinaryCtx(context.Background(), &buf, LoadOptions{})
		if err != nil {
			t.Fatalf("binary reload of valid frozen: %v", err)
		}
		validateFrozen(t, g)
		if g.NumVertices() != fz.NumVertices() || g.NumEdges() != fz.NumEdges() {
			t.Fatalf("round trip changed the graph: %d/%d -> %d/%d",
				fz.NumVertices(), fz.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		for v := int32(0); v < int32(fz.NumVertices()); v++ {
			if fz.LabelString(v) != g.LabelString(v) {
				t.Fatalf("round trip changed vertex %d label %q -> %q", v, fz.LabelString(v), g.LabelString(v))
			}
		}
	})
}

// FuzzBinaryLoader pins the binary loader against hostile bytes: it may
// reject them with an error, but must never panic and must never return
// a structurally invalid graph.
func FuzzBinaryLoader(f *testing.F) {
	f.Add([]byte(BinaryMagic))
	f.Add([]byte("BNET1\n\x01\x01a\x02\x00\x00\x01\x00\x01"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, input []byte) {
		g, _, err := LoadBinaryCtx(context.Background(), bytes.NewReader(input), LoadOptions{})
		if err != nil {
			return // rejection is fine; panics and invalid graphs are not
		}
		validateFrozen(t, g)
	})
}

// FuzzPartitionInvariants pins the edge partition on loader-built
// networks from arbitrary text: every edge lands in exactly one region,
// no region exceeds the cap, every region is non-empty, and the regions
// equal the oracle partition's, for the network as loaded and for its
// Freeze()-built copies (one lists its edge pairs in insertion order, not
// sorted).
func FuzzPartitionInvariants(f *testing.F) {
	f.Add("1 2\n2 3\n3 1\n1 4\n4 5\n", 2)
	f.Add("v 0 a\nv 1 b\n0 1\n", 1)
	f.Add("1 2\n3 4\n5 6\n7 8\n", 3) // disconnected components
	// A hub on two triangles and a tail: five vertices tie at degree 2.
	f.Add("9 1\n9 2\n1 2\n9 3\n9 4\n3 4\n9 5\n5 6\n", 2)
	var net bytes.Buffer
	if err := dataset.WriteNetworkText(&net, dataset.NetworkConfig{Vertices: 64, Edges: 300, Labels: 3, Seed: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(net.String(), 9)
	f.Fuzz(func(t *testing.T, input string, cap int) {
		fz, _, err := LoadEdgeListCtx(context.Background(), strings.NewReader(input), LoadOptions{})
		if err != nil {
			t.Fatalf("lenient loader errored: %v", err)
		}
		if cap <= 0 {
			cap = 1 - cap%7 // keep tiny positive caps in play
		}
		if cap > 1<<20 {
			cap = 1 << 20
		}
		want := legacyPartition(fz, cap)
		for i, g := range append([]*graph.Frozen{fz}, freezeCopies(fz)...) {
			regions, err := partitionEdges(context.Background(), g, cap)
			if err != nil {
				t.Fatalf("partition errored: %v", err)
			}
			checkPartition(t, g, regions, cap)
			if !reflect.DeepEqual(regions, want) {
				t.Fatalf("copy %d: partition diverges from the oracle (%d vs %d regions)", i, len(regions), len(want))
			}
		}
	})
}
