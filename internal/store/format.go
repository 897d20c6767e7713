// Package store is the crash-safe durable snapshot store for the full
// CATAPULT serving state: the graph database, the selected canned
// patterns, the cluster membership and the Maintainer's retry bookkeeping.
//
// # On-disk format (CSNAP1)
//
// A snapshot is a single file:
//
//	"CSNAP1\n"                      7-byte magic
//	uvarint sectionCount
//	sectionCount × section
//
// where each section is
//
//	tag      [4]byte                "META", "LBLS", "GRDB", "PATS",
//	                                "CLUS", "MNTR"
//	uvarint  payloadLen
//	payload  [payloadLen]byte
//	crc32c   uint32 little-endian   CRC-32C (Castagnoli) of tag ∥ payload
//
// Every section is independently framed (length header) and checksummed
// (CRC32C), so the loader detects torn writes, truncation and bit flips
// without trusting any payload byte; unknown tags with a valid CRC are
// skipped for forward compatibility. Snapshots written by earlier versions
// also carry a "GIDX" section (a gindex over the database) between CLUS
// and MNTR; nothing reads it, so it is skipped as unknown. All counts
// inside payloads are validated against the remaining payload length
// before they are used as allocation hints, in the style of the bignet
// BNET1 loader, so hostile lengths cannot force large allocations.
//
// Snapshots are written atomically (AtomicWriteFileCtx: temp file, fsync,
// rename, directory fsync) into generation-numbered slots
// ("csnap-000042.snap") with bounded retention; recovery scans
// generations newest-first and falls back to the last verifiable one,
// reporting everything it skipped as typed *CorruptError faults — never a
// panic, never partial state.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/graph"
)

// Magic is the file magic of the snapshot format.
const Magic = "CSNAP1\n"

// FormatVersion is the CSNAP1 payload format version written by Encode
// and required by Decode.
const FormatVersion = 1

// Section tags, in the order Encode writes them.
const (
	tagMeta  = "META"
	tagLbls  = "LBLS"
	tagGrdb  = "GRDB"
	tagPats  = "PATS"
	tagClus  = "CLUS"
	tagMntr  = "MNTR"
	tagBytes = 4
)

// maxLabelLen bounds any single stored string (vertex label, edge label,
// dataset name, error text), mirroring the bignet binary loader's cap.
const maxLabelLen = 1 << 16

// castagnoli is the CRC-32C table used for every section checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Pattern is one selected canned pattern as persisted: the pattern graph
// plus its score breakdown. It mirrors core.Pattern without importing
// internal/core (which sits above this package in the import graph).
type Pattern struct {
	G         *graph.Graph
	Score     float64
	Ccov      float64
	Lcov      float64
	Div       float64
	Cog       float64
	SourceCSG int
}

// State is the full serving state captured in one snapshot.
type State struct {
	// Dataset is the database name (DB.Name).
	Dataset string
	// Version is the maintainer's monotone state version, bumped on every
	// committed refresh.
	Version uint64
	// SavedAt is when the snapshot was encoded (nanosecond precision).
	SavedAt time.Time

	// Graphs are the database graphs; IDs are their positions.
	Graphs []*graph.Graph
	// Patterns is the served canned-pattern set.
	Patterns []Pattern
	// Clusters is the cluster membership (graph indices per cluster).
	Clusters [][]int

	// Maintainer retry bookkeeping: graphs parked after failed refreshes,
	// the consecutive-failure count driving the backoff ladder, when the
	// queued batch becomes due, and the last failure's message.
	Pending   []*graph.Graph
	Failures  int
	NextRetry time.Time
	LastErr   string
}

// DB reconstructs the graph database of the snapshot (IDs reassigned to
// positions, as graph.NewDB always does).
func (st *State) DB() *graph.DB { return graph.NewDB(st.Dataset, st.Graphs) }

// CorruptError is the typed fault Decode and Recover report for any
// snapshot byte sequence that cannot be verified: bad magic, a CRC
// mismatch, a truncated section, an out-of-range count or reference.
// Recovery treats it as "this generation is unusable", falls back to an
// older one, and surfaces the skip as a degraded start — it never
// panics and never yields partial state.
type CorruptError struct {
	// Section is the 4-byte tag of the offending section, or "header"
	// for damage before the first section.
	Section string
	// Reason describes the verification failure.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt snapshot: section %s: %s", e.Section, e.Reason)
}

// labelTable interns every string of a snapshot (vertex labels, explicit
// edge labels) into a dense table in first-occurrence order, so graph
// payloads reference labels by index and the table is byte-deterministic
// for a given state.
type labelTable struct {
	ids  map[string]uint64
	strs []string
}

func newLabelTable() *labelTable { return &labelTable{ids: make(map[string]uint64)} }

func (t *labelTable) id(s string) uint64 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint64(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

func (t *labelTable) addGraph(g *graph.Graph) {
	for v := 0; v < g.NumVertices(); v++ {
		t.id(g.Label(graph.VertexID(v)))
	}
	for _, e := range g.Edges() {
		if l, ok := g.ExplicitEdgeLabel(e.U, e.V); ok {
			t.id(l)
		}
	}
}

// Encode serializes st into CSNAP1 bytes. Encoding is deterministic:
// equal states produce identical bytes, which the differential restart
// suites rely on (bit-identity across a crash/recover cycle).
func Encode(st *State) ([]byte, error) {
	for _, l := range []struct {
		name string
		s    string
	}{{"dataset", st.Dataset}, {"last error", st.LastErr}} {
		if len(l.s) > maxLabelLen {
			return nil, fmt.Errorf("store: %s exceeds %d bytes", l.name, maxLabelLen)
		}
	}

	tbl := newLabelTable()
	for _, g := range st.Graphs {
		tbl.addGraph(g)
	}
	for _, p := range st.Patterns {
		tbl.addGraph(p.G)
	}
	for _, g := range st.Pending {
		tbl.addGraph(g)
	}
	for _, s := range tbl.strs {
		if len(s) > maxLabelLen {
			return nil, fmt.Errorf("store: label exceeds %d bytes", maxLabelLen)
		}
	}

	// META
	meta := binary.AppendUvarint(nil, FormatVersion)
	meta = appendString(meta, st.Dataset)
	meta = binary.AppendUvarint(meta, st.Version)
	meta = binary.AppendUvarint(meta, uint64(st.SavedAt.UnixNano()))
	meta = binary.AppendUvarint(meta, uint64(len(st.Graphs)))
	meta = binary.AppendUvarint(meta, uint64(len(st.Patterns)))
	meta = binary.AppendUvarint(meta, uint64(len(st.Clusters)))
	meta = binary.AppendUvarint(meta, uint64(len(st.Pending)))
	meta = binary.AppendUvarint(meta, uint64(len(tbl.strs)))

	// LBLS
	lbls := binary.AppendUvarint(nil, uint64(len(tbl.strs)))
	for _, s := range tbl.strs {
		lbls = appendString(lbls, s)
	}

	// GRDB
	grdb := binary.AppendUvarint(nil, uint64(len(st.Graphs)))
	for _, g := range st.Graphs {
		grdb = appendGraph(grdb, tbl, g)
	}

	// PATS
	pats := binary.AppendUvarint(nil, uint64(len(st.Patterns)))
	for _, p := range st.Patterns {
		pats = appendGraph(pats, tbl, p.G)
		for _, f := range [...]float64{p.Score, p.Ccov, p.Lcov, p.Div, p.Cog} {
			pats = binary.LittleEndian.AppendUint64(pats, math.Float64bits(f))
		}
		pats = binary.AppendVarint(pats, int64(p.SourceCSG))
	}

	// CLUS
	clus := binary.AppendUvarint(nil, uint64(len(st.Clusters)))
	for _, members := range st.Clusters {
		clus = binary.AppendUvarint(clus, uint64(len(members)))
		for _, m := range members {
			if m < 0 {
				return nil, fmt.Errorf("store: negative cluster member %d", m)
			}
			clus = binary.AppendUvarint(clus, uint64(m))
		}
	}

	// MNTR
	mntr := binary.AppendUvarint(nil, uint64(len(st.Pending)))
	for _, g := range st.Pending {
		mntr = appendGraph(mntr, tbl, g)
	}
	mntr = binary.AppendUvarint(mntr, uint64(st.Failures))
	var due int64
	if !st.NextRetry.IsZero() {
		due = st.NextRetry.UnixNano()
	}
	mntr = binary.AppendVarint(mntr, due)
	mntr = appendString(mntr, st.LastErr)

	out := []byte(Magic)
	sections := []struct {
		tag     string
		payload []byte
	}{
		{tagMeta, meta}, {tagLbls, lbls}, {tagGrdb, grdb},
		{tagPats, pats}, {tagClus, clus}, {tagMntr, mntr},
	}
	out = binary.AppendUvarint(out, uint64(len(sections)))
	for _, s := range sections {
		out = appendSection(out, s.tag, s.payload)
	}
	return out, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendGraph encodes one graph: signed-varint ID, vertex-label indices,
// the canonical edge list in insertion order, and the explicitly labeled
// edges as (edge index, label index) pairs. Derived edge labels are not
// stored — they are a pure function of the endpoint labels.
func appendGraph(b []byte, tbl *labelTable, g *graph.Graph) []byte {
	b = binary.AppendVarint(b, int64(g.ID))
	nv := g.NumVertices()
	b = binary.AppendUvarint(b, uint64(nv))
	for v := 0; v < nv; v++ {
		b = binary.AppendUvarint(b, tbl.id(g.Label(graph.VertexID(v))))
	}
	edges := g.Edges()
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.U))
		b = binary.AppendUvarint(b, uint64(e.V))
	}
	var explicit []int
	for i, e := range edges {
		if _, ok := g.ExplicitEdgeLabel(e.U, e.V); ok {
			explicit = append(explicit, i)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(explicit)))
	for _, i := range explicit {
		e := edges[i]
		l, _ := g.ExplicitEdgeLabel(e.U, e.V)
		b = binary.AppendUvarint(b, uint64(i))
		b = binary.AppendUvarint(b, tbl.id(l))
	}
	return b
}

func appendSection(b []byte, tag string, payload []byte) []byte {
	b = append(b, tag...)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	crc := crc32.Update(crc32.Checksum([]byte(tag), castagnoli), castagnoli, payload)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// section is one framed region of a snapshot file, as located by
// scanSections: the tag, the payload bounds and the checksum offset. The
// chaos corruption sweep uses the spans to flip, truncate and zero each
// section in isolation.
type section struct {
	tag          string
	payloadStart int
	payloadLen   int
	crcStart     int
}

func (s section) payload(data []byte) []byte {
	return data[s.payloadStart : s.payloadStart+s.payloadLen]
}

// scanSections frames the file without trusting payload contents: it
// checks the magic, walks the section table bounds-checked, and verifies
// every CRC. Any structural damage yields a *CorruptError.
func scanSections(data []byte) ([]section, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, &CorruptError{Section: "header", Reason: "bad magic"}
	}
	off := len(Magic)
	n, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return nil, &CorruptError{Section: "header", Reason: "truncated section count"}
	}
	off += w
	if n > uint64(len(data)-off)/uint64(tagBytes+1) {
		return nil, &CorruptError{Section: "header",
			Reason: fmt.Sprintf("section count %d exceeds file size", n)}
	}
	secs := make([]section, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(data)-off < tagBytes {
			return nil, &CorruptError{Section: "header", Reason: "truncated section tag"}
		}
		tag := string(data[off : off+tagBytes])
		off += tagBytes
		plen, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return nil, &CorruptError{Section: tag, Reason: "truncated payload length"}
		}
		off += w
		if plen > uint64(len(data)-off) {
			return nil, &CorruptError{Section: tag,
				Reason: fmt.Sprintf("payload length %d exceeds remaining %d bytes", plen, len(data)-off)}
		}
		s := section{tag: tag, payloadStart: off, payloadLen: int(plen)}
		off += int(plen)
		if len(data)-off < 4 {
			return nil, &CorruptError{Section: tag, Reason: "truncated checksum"}
		}
		s.crcStart = off
		want := binary.LittleEndian.Uint32(data[off:])
		off += 4
		got := crc32.Update(crc32.Checksum([]byte(tag), castagnoli), castagnoli, s.payload(data))
		if got != want {
			return nil, &CorruptError{Section: tag,
				Reason: fmt.Sprintf("checksum mismatch: got %08x, want %08x", got, want)}
		}
		secs = append(secs, s)
	}
	if off != len(data) {
		return nil, &CorruptError{Section: "header",
			Reason: fmt.Sprintf("%d trailing bytes after last section", len(data)-off)}
	}
	return secs, nil
}

// dec is a bounds-checked payload reader. Every count it hands out is
// capped by the remaining payload bytes, so a hostile length can never
// become a large allocation.
type dec struct {
	b       []byte
	off     int
	section string
}

func (d *dec) corrupt(format string, args ...any) error {
	return &CorruptError{Section: d.section, Reason: fmt.Sprintf(format, args...)}
}

func (d *dec) rem() int { return len(d.b) - d.off }

func (d *dec) uvarint() (uint64, error) {
	v, w := binary.Uvarint(d.b[d.off:])
	if w <= 0 {
		return 0, d.corrupt("truncated uvarint at payload offset %d", d.off)
	}
	d.off += w
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, w := binary.Varint(d.b[d.off:])
	if w <= 0 {
		return 0, d.corrupt("truncated varint at payload offset %d", d.off)
	}
	d.off += w
	return v, nil
}

// count reads a uvarint that will drive a loop or allocation of elements
// at least perElem bytes wide, rejecting values the remaining payload
// cannot possibly hold.
func (d *dec) count(what string, perElem int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if perElem < 1 {
		perElem = 1
	}
	if v > uint64(d.rem()/perElem) {
		return 0, d.corrupt("%s count %d exceeds remaining %d payload bytes", what, v, d.rem())
	}
	return int(v), nil
}

func (d *dec) str(what string) (string, error) {
	n, err := d.count(what+" length", 1)
	if err != nil {
		return "", err
	}
	if n > maxLabelLen {
		return "", d.corrupt("%s length %d exceeds %d", what, n, maxLabelLen)
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *dec) u64() (uint64, error) {
	if d.rem() < 8 {
		return 0, d.corrupt("truncated 8-byte field at payload offset %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *dec) done() error {
	if d.rem() != 0 {
		return d.corrupt("%d trailing payload bytes", d.rem())
	}
	return nil
}

// graph decodes one graph encoded by appendGraph, resolving label indices
// through the snapshot's label table. Structural violations (out-of-range
// endpoints, duplicate edges, self loops) surface as *CorruptError via
// graph.AddEdge's own validation.
func (d *dec) graph(labels []string) (*graph.Graph, error) {
	id, err := d.varint()
	if err != nil {
		return nil, err
	}
	nv, err := d.count("vertex", 1)
	if err != nil {
		return nil, err
	}
	g := graph.New(nv, 0)
	for v := 0; v < nv; v++ {
		li, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if li >= uint64(len(labels)) {
			return nil, d.corrupt("vertex label index %d out of range [0,%d)", li, len(labels))
		}
		g.AddVertex(labels[li])
	}
	ne, err := d.count("edge", 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ne; i++ {
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if u >= uint64(nv) || v >= uint64(nv) {
			return nil, d.corrupt("edge endpoint (%d,%d) out of range [0,%d)", u, v, nv)
		}
		if err := g.AddEdge(graph.VertexID(u), graph.VertexID(v)); err != nil {
			return nil, d.corrupt("edge %d: %v", i, err)
		}
	}
	nel, err := d.count("edge label", 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nel; i++ {
		ei, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		li, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ei >= uint64(ne) {
			return nil, d.corrupt("labeled edge index %d out of range [0,%d)", ei, ne)
		}
		if li >= uint64(len(labels)) {
			return nil, d.corrupt("edge label index %d out of range [0,%d)", li, len(labels))
		}
		e := g.Edges()[ei]
		if err := g.SetEdgeLabel(e.U, e.V, labels[li]); err != nil {
			return nil, d.corrupt("edge label %d: %v", i, err)
		}
	}
	if id < math.MinInt32 || id > math.MaxInt32 {
		return nil, d.corrupt("graph id %d out of range", id)
	}
	g.ID = int(id)
	return g, nil
}

// Decode parses and fully verifies CSNAP1 bytes. Any damage — torn
// write, truncation, bit flip, hostile length, dangling reference,
// cross-section count mismatch — returns a *CorruptError; Decode never
// panics on arbitrary input (FuzzSnapshotLoader holds it to that).
func Decode(data []byte) (*State, error) {
	secs, err := scanSections(data)
	if err != nil {
		return nil, err
	}
	byTag := make(map[string]section, len(secs))
	for _, s := range secs {
		switch s.tag {
		case tagMeta, tagLbls, tagGrdb, tagPats, tagClus, tagMntr:
			if _, dup := byTag[s.tag]; dup {
				return nil, &CorruptError{Section: s.tag, Reason: "duplicate section"}
			}
			byTag[s.tag] = s
		default:
			// Unknown tag with a valid CRC: a future format extension,
			// or the GIDX section of an earlier version. Skip it; the
			// known sections are self-contained.
		}
	}
	for _, tag := range []string{tagMeta, tagLbls, tagGrdb, tagPats, tagClus, tagMntr} {
		if _, ok := byTag[tag]; !ok {
			return nil, &CorruptError{Section: tag, Reason: "section missing"}
		}
	}

	st := &State{}

	// META
	d := &dec{b: byTag[tagMeta].payload(data), section: tagMeta}
	ver, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != FormatVersion {
		return nil, d.corrupt("unsupported format version %d (want %d)", ver, FormatVersion)
	}
	if st.Dataset, err = d.str("dataset"); err != nil {
		return nil, err
	}
	if st.Version, err = d.uvarint(); err != nil {
		return nil, err
	}
	savedAt, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	st.SavedAt = time.Unix(0, int64(savedAt))
	var metaCounts [5]uint64
	for i := range metaCounts {
		if metaCounts[i], err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// LBLS
	d = &dec{b: byTag[tagLbls].payload(data), section: tagLbls}
	nl, err := d.count("label", 1)
	if err != nil {
		return nil, err
	}
	labels := make([]string, nl)
	for i := range labels {
		if labels[i], err = d.str("label"); err != nil {
			return nil, err
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// GRDB
	d = &dec{b: byTag[tagGrdb].payload(data), section: tagGrdb}
	ng, err := d.count("graph", 2)
	if err != nil {
		return nil, err
	}
	st.Graphs = make([]*graph.Graph, ng)
	for i := range st.Graphs {
		if st.Graphs[i], err = d.graph(labels); err != nil {
			return nil, err
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// PATS
	d = &dec{b: byTag[tagPats].payload(data), section: tagPats}
	np, err := d.count("pattern", 2)
	if err != nil {
		return nil, err
	}
	st.Patterns = make([]Pattern, np)
	for i := range st.Patterns {
		p := &st.Patterns[i]
		if p.G, err = d.graph(labels); err != nil {
			return nil, err
		}
		for _, f := range [...]*float64{&p.Score, &p.Ccov, &p.Lcov, &p.Div, &p.Cog} {
			bits, err := d.u64()
			if err != nil {
				return nil, err
			}
			*f = math.Float64frombits(bits)
		}
		src, err := d.varint()
		if err != nil {
			return nil, err
		}
		if src < math.MinInt32 || src > math.MaxInt32 {
			return nil, d.corrupt("pattern source CSG %d out of range", src)
		}
		p.SourceCSG = int(src)
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// CLUS
	d = &dec{b: byTag[tagClus].payload(data), section: tagClus}
	nc, err := d.count("cluster", 1)
	if err != nil {
		return nil, err
	}
	st.Clusters = make([][]int, nc)
	for i := range st.Clusters {
		nm, err := d.count("cluster member", 1)
		if err != nil {
			return nil, err
		}
		members := make([]int, nm)
		for j := range members {
			m, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if m >= uint64(ng) {
				return nil, d.corrupt("cluster %d member %d out of range [0,%d)", i, m, ng)
			}
			members[j] = int(m)
		}
		st.Clusters[i] = members
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// MNTR
	d = &dec{b: byTag[tagMntr].payload(data), section: tagMntr}
	npend, err := d.count("pending graph", 2)
	if err != nil {
		return nil, err
	}
	st.Pending = make([]*graph.Graph, npend)
	for i := range st.Pending {
		if st.Pending[i], err = d.graph(labels); err != nil {
			return nil, err
		}
	}
	failures, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if failures > math.MaxInt32 {
		return nil, d.corrupt("failure count %d out of range", failures)
	}
	st.Failures = int(failures)
	due, err := d.varint()
	if err != nil {
		return nil, err
	}
	if due != 0 {
		st.NextRetry = time.Unix(0, due)
	}
	if st.LastErr, err = d.str("last error"); err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// Cross-section consistency: META's counts must agree with what the
	// sections actually carried, catching section substitution from an
	// unrelated (but individually valid) snapshot.
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"graph", uint64(len(st.Graphs)), metaCounts[0]},
		{"pattern", uint64(len(st.Patterns)), metaCounts[1]},
		{"cluster", uint64(len(st.Clusters)), metaCounts[2]},
		{"pending graph", uint64(len(st.Pending)), metaCounts[3]},
		{"label", uint64(nl), metaCounts[4]},
	} {
		if c.got != c.want {
			return nil, &CorruptError{Section: tagMeta,
				Reason: fmt.Sprintf("%s count mismatch: META says %d, sections carry %d", c.name, c.want, c.got)}
		}
	}
	return st, nil
}

// Equal reports whether two states encode to identical bytes — the
// bit-identity predicate of the restart differential suites.
func Equal(a, b *State) (bool, error) {
	ab, err := Encode(a)
	if err != nil {
		return false, err
	}
	bb, err := Encode(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}
