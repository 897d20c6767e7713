package layout

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func ring(n int) *graph.Graph {
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddVertex("C")
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return g
}

func pathGraph(labels ...string) *graph.Graph {
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
	}
	return g
}

func TestCircularPositions(t *testing.T) {
	g := ring(6)
	pts := Circular(g)
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// All on a circle of radius 0.42 around (0.5, 0.5).
	for i, p := range pts {
		r := math.Hypot(p.X-0.5, p.Y-0.5)
		if math.Abs(r-0.42) > 1e-9 {
			t.Errorf("vertex %d radius %v", i, r)
		}
	}
	// Adjacent vertices equidistant.
	d01 := math.Hypot(pts[0].X-pts[1].X, pts[0].Y-pts[1].Y)
	d12 := math.Hypot(pts[1].X-pts[2].X, pts[1].Y-pts[2].Y)
	if math.Abs(d01-d12) > 1e-9 {
		t.Errorf("ring spacing uneven: %v vs %v", d01, d12)
	}
}

func TestCircularDegenerate(t *testing.T) {
	if pts := Circular(graph.New(0, 0)); len(pts) != 0 {
		t.Error("empty graph should have no points")
	}
	single := graph.New(1, 0)
	single.AddVertex("C")
	pts := Circular(single)
	if pts[0] != (Point{0.5, 0.5}) {
		t.Errorf("singleton position %v", pts[0])
	}
}

func TestForceDirectedBounds(t *testing.T) {
	g := pathGraph("C", "O", "N", "S", "C", "C")
	pts := ForceDirected(g, 100, 3)
	for i, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Errorf("vertex %d out of unit square: %v", i, p)
		}
	}
}

func TestForceDirectedDeterministic(t *testing.T) {
	g := pathGraph("C", "O", "N", "S")
	a := ForceDirected(g, 50, 7)
	b := ForceDirected(g, 50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic layout at %d", i)
		}
	}
}

func TestForceDirectedSeparatesVertices(t *testing.T) {
	g := ring(5)
	pts := ForceDirected(g, 200, 5)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			d := math.Hypot(pts[i].X-pts[j].X, pts[i].Y-pts[j].Y)
			if d < 0.02 {
				t.Errorf("vertices %d and %d nearly coincident (d=%v)", i, j, d)
			}
		}
	}
}

func TestAutoChoosesCircularForRings(t *testing.T) {
	g := ring(6)
	pts := Auto(g, 1)
	r := math.Hypot(pts[0].X-0.5, pts[0].Y-0.5)
	if math.Abs(r-0.42) > 1e-9 {
		t.Error("Auto did not use circular layout for a ring")
	}
	// Non-ring should not be forced onto the circle.
	p := pathGraph("C", "C", "C")
	_ = Auto(p, 1) // just exercise the path; bounds checked elsewhere
}

func TestSVGWellFormed(t *testing.T) {
	g := pathGraph("C", "O", "N")
	out := SVG(g, 2)
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
		t.Fatalf("not an svg document: %.60s...", out)
	}
	// Must parse as XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("svg is not well-formed XML: %v", err)
		}
	}
	// 2 edges, 3 vertices, 3 labels.
	if got := strings.Count(out, "<line"); got != 2 {
		t.Errorf("lines = %d, want 2", got)
	}
	if got := strings.Count(out, "<circle"); got != 3 {
		t.Errorf("circles = %d, want 3", got)
	}
	for _, l := range []string{">C</text>", ">O</text>", ">N</text>"} {
		if !strings.Contains(out, l) {
			t.Errorf("missing label %q", l)
		}
	}
}

func TestSVGDefaultSizeAndEscaping(t *testing.T) {
	g := graph.New(1, 0)
	g.AddVertex("<&>")
	out := SVG(g, 0)
	if !strings.Contains(out, `width="160"`) {
		t.Error("canvas is not 160 pixels wide")
	}
	if strings.Contains(out, "><&></text>") {
		t.Error("label not XML-escaped")
	}
	if !strings.Contains(out, "&lt;&amp;&gt;") {
		t.Errorf("escaped label missing: %s", out)
	}
}
