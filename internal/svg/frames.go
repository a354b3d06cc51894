package svg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/vortree"
)

// PlaneFrameOptions controls what a 2D-plane demonstration frame shows,
// mirroring the check boxes of the demo's control panel.
type PlaneFrameOptions struct {
	WidthPx          int  // raster width; default 800
	ShowVoronoiCells bool // order-1 Voronoi cells of all objects
	ShowOrderKCell   bool // safe region of the current kNN set
	ShowCircles      bool // the green/red validation circles
}

// PlaneFrame renders one timestamp of a 2D-plane demonstration: the data
// objects, the query position, and the query's current kNN and influence
// sets, plus the optional safe-region geometry of Figure 4.
func PlaneFrame(ix *vortree.Index, q *core.PlaneQuery, pos geom.Point, opts PlaneFrameOptions) (string, error) {
	if opts.WidthPx == 0 {
		opts.WidthPx = 800
	}
	c := NewCanvas(ix.Bounds(), opts.WidthPx)

	if opts.ShowVoronoiCells {
		for _, id := range ix.IDs() {
			cell, err := ix.Cell(id)
			if err != nil {
				return "", fmt.Errorf("svg: cell of %d: %w", id, err)
			}
			c.Polygon(cell, "none", ColorVoronoi, 1, 0)
		}
	}

	knn := q.Current()
	inKNN := make(map[int]bool, len(knn))
	for _, id := range knn {
		inKNN[id] = true
	}
	is := q.InfluenceSet()
	inIS := make(map[int]bool, len(is))
	for _, id := range is {
		inIS[id] = true
	}

	if opts.ShowOrderKCell && len(knn) > 0 {
		ins, err := ix.INS(knn)
		if err != nil {
			return "", fmt.Errorf("svg: INS: %w", err)
		}
		cell, err := ix.OrderKCell(knn, ins)
		if err != nil {
			return "", fmt.Errorf("svg: order-k cell: %w", err)
		}
		color := ColorCellOK
		if !cell.Contains(pos) {
			color = ColorCellBad
		}
		c.Polygon(cell, color, color, 2, 0.15)
	}

	if opts.ShowCircles && len(knn) > 0 {
		// Green circle through the farthest kNN member; red circle through
		// the nearest influence-set member; both centered at the query.
		var far float64
		for _, id := range knn {
			if d := pos.Dist(ix.Point(id)); d > far {
				far = d
			}
		}
		c.Circle(pos, far, ColorKNN, 1.5)
		near := -1.0
		for _, id := range is {
			if dd := pos.Dist(ix.Point(id)); near < 0 || dd < near {
				near = dd
			}
		}
		if near >= 0 {
			c.Circle(pos, near, ColorQuery, 1.5)
		}
	}

	for _, id := range ix.IDs() {
		color := ColorObject
		switch {
		case inKNN[id]:
			color = ColorKNN
		case inIS[id]:
			color = ColorINS
		}
		c.Dot(ix.Point(id), 3, color)
	}
	c.Dot(pos, 5, ColorQuery)
	return c.String(), nil
}

// NetworkFrameOptions controls a road-network demonstration frame.
type NetworkFrameOptions struct {
	WidthPx        int  // raster width; default 800
	ShowSubnetwork bool // highlight the Theorem-2 validation subnetwork
}

// NetworkFrame renders one timestamp of a road-network demonstration: the
// network, the data objects (orange), the query (red), the kNN set (green)
// and the INS (yellow), with the guard subnetwork optionally highlighted —
// the network-mode analogue of the green/yellow cell edges in Figure 3.
func NetworkFrame(d *netvor.Diagram, q *core.NetworkQuery, pos roadnet.Position, opts NetworkFrameOptions) string {
	if opts.WidthPx == 0 {
		opts.WidthPx = 800
	}
	g := d.Graph()
	bounds := networkBounds(g)
	c := NewCanvas(bounds, opts.WidthPx)

	g.Edges(func(u, v int, w float64) {
		c.Line(g.Point(u), g.Point(v), ColorRoad, 1)
	})
	if opts.ShowSubnetwork {
		if sub := q.Subnetwork(); sub != nil {
			sub.G.Edges(func(u, v int, w float64) {
				c.Line(sub.G.Point(u), sub.G.Point(v), ColorSubRoad, 2.5)
			})
		}
	}

	knn := q.Current()
	inKNN := make(map[int]bool, len(knn))
	for _, s := range knn {
		inKNN[s] = true
	}
	ins := q.INS()
	inINS := make(map[int]bool, len(ins))
	for _, s := range ins {
		inINS[s] = true
	}
	for _, s := range d.Sites() {
		color := ColorObject
		switch {
		case inKNN[s]:
			color = ColorKNN
		case inINS[s]:
			color = ColorINS
		}
		c.Dot(g.Point(s), 4, color)
	}
	c.Dot(pos.Point(g), 5, ColorQuery)
	return c.String()
}

func networkBounds(g *roadnet.Graph) geom.Rect {
	if g.NumVertices() == 0 {
		return geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	}
	r := geom.Rect{Min: g.Point(0), Max: g.Point(0)}
	for v := 1; v < g.NumVertices(); v++ {
		r = r.ExpandPoint(g.Point(v))
	}
	// Avoid zero-area canvases for degenerate embeddings.
	if r.Width() == 0 || r.Height() == 0 {
		r = r.Inset(-1)
	}
	return r
}
