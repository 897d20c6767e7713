package layout

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// svgSize is the square canvas side in pixels.
const svgSize = 160

// atomColors gives common chemistry-inspired colors per vertex label;
// unknown labels render gray.
var atomColors = map[string]string{
	"C": "#4d4d4d", "O": "#d62728", "N": "#1f77b4", "S": "#bcbd22",
	"Cl": "#2ca02c", "P": "#ff7f0e", "F": "#17becf", "*": "#9467bd",
}

// SVG renders the pattern as a standalone SVG document: edges as lines,
// vertices as labeled circles. seed drives the force-directed layout when
// one is needed.
func SVG(g *graph.Graph, seed int64) string {
	pts := Auto(g, seed)
	scale := func(p Point) (float64, float64) {
		return p.X * float64(svgSize), p.Y * float64(svgSize)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		svgSize, svgSize, svgSize, svgSize)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	for _, e := range g.Edges() {
		x1, y1 := scale(pts[e.U])
		x2, y2 := scale(pts[e.V])
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#555" stroke-width="2"/>`,
			x1, y1, x2, y2)
	}
	r := float64(svgSize) * 0.055
	for v := 0; v < g.NumVertices(); v++ {
		x, y := scale(pts[v])
		label := g.Label(graph.VertexID(v))
		color, ok := atomColors[label]
		if !ok {
			color = "#7f7f7f"
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`, x, y, r, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" dominant-baseline="central" font-size="%.0f" fill="white" font-family="sans-serif">%s</text>`,
			x, y, r*1.1, escapeXML(label))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
