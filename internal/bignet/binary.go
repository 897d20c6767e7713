// Compact binary network format: the at-rest twin of the text edge list.
//
// Layout (all integers unsigned varints):
//
//	magic   "BNET1\n"
//	nLabels, then per label: byte length + raw bytes
//	nVertices, then per vertex: label index
//	nEdges, then per edge: u, v (canonical u < v, sorted ascending)
//
// The format is a faithful dump of a Frozen — writing and reloading
// reproduces an identical network. Reads stream through a FrozenBuilder
// so a corrupt or hostile file degrades to an error or a smaller valid
// graph, never a panic or an oversized allocation (all header counts are
// cap-checked before trusting them as allocation hints).
package bignet

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// BinaryMagic begins every binary network file.
const BinaryMagic = "BNET1\n"

const maxLabelLen = 1 << 16

// WriteBinary dumps the frozen network in the compact binary format.
func WriteBinary(w io.Writer, f *graph.Frozen) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(BinaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}

	// Label table in first-use vertex order.
	n := f.NumVertices()
	index := make(map[graph.LabelID]uint64)
	var table []string
	for v := 0; v < n; v++ {
		id := f.Label(int32(v))
		if _, ok := index[id]; !ok {
			index[id] = uint64(len(table))
			table = append(table, f.LabelString(int32(v)))
		}
	}
	if err := putUvarint(uint64(len(table))); err != nil {
		return err
	}
	for _, s := range table {
		if len(s) > maxLabelLen {
			return fmt.Errorf("bignet: label longer than %d bytes", maxLabelLen)
		}
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}

	if err := putUvarint(uint64(n)); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if err := putUvarint(index[f.Label(int32(v))]); err != nil {
			return err
		}
	}

	ep := f.EdgePairs()
	if err := putUvarint(uint64(len(ep) / 2)); err != nil {
		return err
	}
	for i := 0; i < len(ep); i += 2 {
		if err := putUvarint(uint64(ep[i])); err != nil {
			return err
		}
		if err := putUvarint(uint64(ep[i+1])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadBinaryCtx streams a binary network file into a standalone frozen
// CSR network, with the same progress counters and cancellation cadence
// as the text loader. Structural damage (bad magic, truncation, counts
// out of range) returns an error; recoverable oddities (self-loops,
// duplicate or out-of-range edges) are counted and skipped exactly like
// the text path.
func LoadBinaryCtx(ctx context.Context, r io.Reader, opts LoadOptions) (*graph.Frozen, *LoadStats, error) {
	tr := pipeline.From(ctx)
	done := pipeline.StartStage(ctx, pipeline.StageNetLoad)
	defer done()

	br := bufio.NewReaderSize(r, 256*1024)
	magic := make([]byte, len(BinaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != BinaryMagic {
		return nil, nil, fmt.Errorf("bignet: not a binary network file (magic mismatch)")
	}

	nLabels, err := binary.ReadUvarint(br)
	if err != nil || nLabels > math.MaxInt32 {
		return nil, nil, fmt.Errorf("bignet: bad label count")
	}
	labels := make([]graph.LabelID, 0, capHint(int(nLabels), 16))
	lbuf := make([]byte, 0, 64)
	for i := uint64(0); i < nLabels; i++ {
		ln, err := binary.ReadUvarint(br)
		if err != nil || ln > maxLabelLen {
			return nil, nil, fmt.Errorf("bignet: bad label length")
		}
		if uint64(cap(lbuf)) < ln {
			lbuf = make([]byte, ln)
		}
		lbuf = lbuf[:ln]
		if _, err := io.ReadFull(br, lbuf); err != nil {
			return nil, nil, fmt.Errorf("bignet: truncated label table")
		}
		labels = append(labels, graph.Intern(string(lbuf)))
	}

	nVertices, err := binary.ReadUvarint(br)
	if err != nil || nVertices > math.MaxInt32 {
		return nil, nil, fmt.Errorf("bignet: bad vertex count")
	}
	nv := int32(nVertices)
	b := graph.NewFrozenBuilder(capHint(int(nVertices), 1024), capHint(opts.EdgeHint, 4096))
	defaultID := graph.Intern(defaultLabel)
	st := &LoadStats{}
	for v := int32(0); v < nv; v++ {
		li, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("bignet: truncated vertex labels")
		}
		id := defaultID
		if li < uint64(len(labels)) {
			id = labels[li]
		} else {
			st.Malformed++
		}
		b.AddVertexID(id)
		if v%progressEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
	}

	nEdges, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("bignet: bad edge count")
	}
	var pendingLoaded, pendingDropped int64
	flush := func() {
		if pendingLoaded > 0 {
			tr.Add(pipeline.CounterNetEdgesLoaded, pendingLoaded)
			pendingLoaded = 0
		}
		if pendingDropped > 0 {
			tr.Add(pipeline.CounterNetEdgesDropped, pendingDropped)
			pendingDropped = 0
		}
	}
	for i := uint64(0); i < nEdges; i++ {
		if i%progressEvery == 0 {
			flush()
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		st.Lines++
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("bignet: truncated edges")
		}
		w, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("bignet: truncated edges")
		}
		if u >= uint64(nv) || w >= uint64(nv) {
			st.Malformed++
			pendingDropped++
			continue
		}
		if u == w {
			st.SelfLoops++
			pendingDropped++
			continue
		}
		b.AddEdge(int32(u), int32(w))
		pendingLoaded++
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	added := b.NumAddedEdges()
	f := b.Build(0)
	st.Vertices = int64(f.NumVertices())
	st.Edges = int64(f.NumEdges())
	st.Duplicates = int64(added - f.NumEdges())
	pendingDropped += st.Duplicates
	st.Labels = len(f.LabelCounts())
	flush()
	return f, st, nil
}
