// Streaming edge-list loader: SNAP-style text → graph.Frozen, directly.
//
// Large networks arrive as edge lists (one "u v" pair per line, with
// optional "v id label" vertex declarations and "#"/"%" comment lines).
// The loader parses line by line with an allocation-free byte scanner,
// remaps arbitrary external vertex IDs to dense int32 indices in
// first-seen order, and accumulates into a graph.FrozenBuilder — so the
// only per-edge state before Build is one packed uint64, and the mutable
// Graph representation never exists.
//
// The loader is deliberately lenient: malformed lines, self-loops,
// duplicate edges and out-of-range IDs are counted and skipped, never
// fatal — the fuzz suite (FuzzEdgeListLoader) pins "arbitrary input
// never panics and always yields a structurally valid Frozen". Progress
// is reported on the pipeline Trace (bignet_edges_loaded /
// bignet_edges_dropped) every progressEvery lines, where cancellation is
// also checked.
package bignet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// LoadOptions tunes the streaming loaders.
type LoadOptions struct {
	// VertexHint / EdgeHint pre-size the builder. Zero means modest
	// defaults; hints are capped internally so hostile headers cannot
	// force huge allocations.
	VertexHint int
	EdgeHint   int
}

// defaultLabel is assigned to vertices that appear only on edge lines
// (no "v" declaration).
const defaultLabel = "v"

// allocCap bounds pre-allocation from untrusted size hints (binary
// headers, caller hints). Real sizes beyond the cap still work — slices
// grow — but a hostile header cannot make the loader allocate gigabytes
// up front.
const allocCap = 1 << 22

func capHint(h, def int) int {
	if h <= 0 {
		return def
	}
	if h > allocCap {
		return allocCap
	}
	return h
}

// progressEvery is the line cadence of progress reporting and
// cancellation checks in the streaming loaders.
const progressEvery = 1024

// LoadStats reports what a streaming load accepted and dropped.
type LoadStats struct {
	Vertices   int64 // vertices in the frozen network
	Edges      int64 // distinct undirected edges in the frozen network
	Lines      int64 // input lines consumed (including comments)
	Malformed  int64 // lines skipped as unparseable
	SelfLoops  int64 // edge lines dropped as self-loops
	Duplicates int64 // edge lines collapsed as duplicates
	Labels     int   // distinct vertex labels
}

func (s LoadStats) String() string {
	return fmt.Sprintf("vertices=%d edges=%d labels=%d (lines=%d malformed=%d self-loops=%d duplicates=%d)",
		s.Vertices, s.Edges, s.Labels, s.Lines, s.Malformed, s.SelfLoops, s.Duplicates)
}

// LoadEdgeListCtx streams a SNAP-style text edge list into a standalone
// frozen CSR network with the given graph ID 0. Lines:
//
//	# anything            comment (also %)
//	v <id> <label>        vertex declaration (label optional)
//	e <u> <v> [...]       edge
//	<u> <v> [...]         edge (bare SNAP form)
//
// External IDs may be any int64; they are remapped densely in first-seen
// order. Undeclared endpoints get defaultLabel. Malformed lines,
// self-loops and duplicates are counted in LoadStats and skipped.
func LoadEdgeListCtx(ctx context.Context, r io.Reader, opts LoadOptions) (*graph.Frozen, *LoadStats, error) {
	tr := pipeline.From(ctx)
	done := pipeline.StartStage(ctx, pipeline.StageNetLoad)
	defer done()

	b := graph.NewFrozenBuilder(capHint(opts.VertexHint, 1024), capHint(opts.EdgeHint, 4096))
	ids := make(map[int64]int32, capHint(opts.VertexHint, 1024))
	st := &LoadStats{}
	defaultID := graph.Intern(defaultLabel)

	// vertex returns the dense index for external id, creating it with
	// the default label on first sight. ok is false past the int32 limit.
	vertex := func(id int64) (int32, bool) {
		if v, ok := ids[id]; ok {
			return v, true
		}
		if len(ids) >= math.MaxInt32 {
			return 0, false
		}
		v := b.AddVertexID(defaultID)
		ids[id] = v
		return v, true
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
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
	for sc.Scan() {
		st.Lines++
		if st.Lines%progressEvery == 0 {
			flush()
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		line := sc.Bytes()
		f0, rest := nextField(line)
		if f0 == nil || f0[0] == '#' || f0[0] == '%' {
			continue // blank or comment
		}
		switch {
		case len(f0) == 1 && f0[0] == 'v':
			idb, rest2 := nextField(rest)
			id, ok := parseInt(idb)
			if !ok {
				st.Malformed++
				continue
			}
			v, ok := vertex(id)
			if !ok {
				st.Malformed++
				continue
			}
			if lab, _ := nextField(rest2); lab != nil {
				b.SetLabel(v, string(lab))
			}
		default:
			ub, vb := f0, rest
			if len(f0) == 1 && f0[0] == 'e' {
				ub, vb = nextField(rest)
			}
			vf, _ := nextField(vb)
			u, ok1 := parseInt(ub)
			w, ok2 := parseInt(vf)
			if !ok1 || !ok2 {
				st.Malformed++
				pendingDropped++
				continue
			}
			if u == w {
				st.SelfLoops++
				pendingDropped++
				continue
			}
			ui, ok1 := vertex(u)
			wi, ok2 := vertex(w)
			if !ok1 || !ok2 {
				st.Malformed++
				pendingDropped++
				continue
			}
			b.AddEdge(ui, wi)
			pendingLoaded++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("bignet: read edge list: %w", err)
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

// nextField returns the first whitespace-delimited field of b and the
// remainder after it. A nil field means no field remains.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseInt parses a decimal int64 with overflow detection. It exists
// because strconv.ParseInt needs a string (an allocation per field on
// this hot path).
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false // overflow
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, true
}
