package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, 5)
	if got := p.Add(q); !got.Eq(Pt(4, 7)) {
		t.Errorf("Add = %v, want (4, 7)", got)
	}
	if got := q.Sub(p); !got.Eq(Pt(2, 3)) {
		t.Errorf("Sub = %v, want (2, 3)", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2, 4)", got)
	}
	if got := p.Dot(q); got != 13 {
		t.Errorf("Dot = %g, want 13", got)
	}
	if got := p.Cross(q); got != -1 {
		t.Errorf("Cross = %g, want -1", got)
	}
}

func TestDistAgreesWithDist2(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by))
		d, d2 := a.Dist(b), a.Dist2(b)
		return math.Abs(d*d-d2) <= 1e-9*(d2+1)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// clampCoord maps arbitrary quick-generated floats into a sane coordinate
// range so products cannot overflow.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestSegmentDistPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 3},
		{Pt(-4, 3), 5},  // beyond A
		{Pt(13, -4), 5}, // beyond B
		{Pt(0, 0), 0},
		{Pt(10, 0), 0},
		{Pt(7, 0), 0},
	}
	for _, c := range cases {
		if got := s.DistPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	deg := Segment{Pt(2, 2), Pt(2, 2)}
	if got := deg.DistPoint(Pt(5, 6)); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate DistPoint = %g, want 5", got)
	}
}

func TestSegmentAtLen(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 3)}
	if got := s.Len(); got != 5 {
		t.Errorf("Len = %g, want 5", got)
	}
	if got := s.At(0.5); !got.Eq(Pt(2, 1.5)) {
		t.Errorf("At(0.5) = %v, want (2, 1.5)", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 6), Pt(0, 2))
	if !r.Min.Eq(Pt(0, 2)) || !r.Max.Eq(Pt(4, 6)) {
		t.Fatalf("NewRect normalized to %v", r)
	}
	if r.Width() != 4 || r.Height() != 4 || r.Area() != 16 || r.Perimeter() != 8 {
		t.Errorf("dimensions wrong: w=%g h=%g a=%g p=%g", r.Width(), r.Height(), r.Area(), r.Perimeter())
	}
	if !r.Contains(Pt(2, 4)) || !r.Contains(Pt(0, 2)) || r.Contains(Pt(5, 4)) {
		t.Error("Contains misclassifies")
	}
	if !r.Center().Eq(Pt(2, 4)) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectIntersectsExpand(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(2, 2))
	b := NewRect(Pt(1, 1), Pt(3, 3))
	c := NewRect(Pt(5, 5), Pt(6, 6))
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a and c should not intersect")
	}
	// Touching rectangles intersect (closed sets).
	d := NewRect(Pt(2, 0), Pt(4, 2))
	if !a.Intersects(d) {
		t.Error("touching rectangles should intersect")
	}
	e := a.Expand(c)
	if !e.ContainsRect(a) || !e.ContainsRect(c) {
		t.Error("Expand does not contain inputs")
	}
	if got := a.EnlargementArea(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("EnlargementArea = %g, want 5", got)
	}
}

func TestRectDist2Point(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 2))
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0},
		{Pt(2, 2), 0},
		{Pt(3, 1), 1},
		{Pt(1, -2), 4},
		{Pt(5, 6), 9 + 16},
	}
	for _, c := range cases {
		if got := r.Dist2Point(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist2Point(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(Pt(1, 5), Pt(-2, 3), Pt(4, -1))
	want := Rect{Pt(-2, -1), Pt(4, 5)}
	if r != want {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("RectOf() of no points should panic")
		}
	}()
	RectOf()
}

func TestOrientBasic(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if got := Orient(a, b, Pt(0.5, 1)); got != CounterClockwise {
		t.Errorf("left point: got %v", got)
	}
	if got := Orient(a, b, Pt(0.5, -1)); got != Clockwise {
		t.Errorf("right point: got %v", got)
	}
	if got := Orient(a, b, Pt(2, 0)); got != Collinear {
		t.Errorf("collinear point: got %v", got)
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		c := Pt(clampCoord(cx), clampCoord(cy))
		return Orient(a, b, c) == -Orient(b, a, c) &&
			Orient(a, b, c) == Orient(b, c, a) // cyclic invariance
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestOrientNearDegenerate(t *testing.T) {
	// Points almost exactly on the line y = x; the floating-point filter
	// must hand these to the exact path and still give consistent answers.
	a, b := Pt(0, 0), Pt(1e17, 1e17)
	on := Pt(0.5e17, 0.5e17)
	if got := Orient(a, b, on); got != Collinear {
		t.Errorf("exactly-on-line point: got %v, want Collinear", got)
	}
	// Perturb the x coordinate by one ulp in each direction.
	up := Pt(math.Nextafter(on.X, math.Inf(1)), on.Y)
	down := Pt(math.Nextafter(on.X, math.Inf(-1)), on.Y)
	if got := Orient(a, b, up); got != Clockwise {
		t.Errorf("one ulp right of line: got %v, want Clockwise", got)
	}
	if got := Orient(a, b, down); got != CounterClockwise {
		t.Errorf("one ulp left of line: got %v, want CounterClockwise", got)
	}
}

func TestInCircleBasic(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) (counter-clockwise).
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	if got := InCircle(a, b, c, Pt(0, 0)); got != 1 {
		t.Errorf("center: got %d, want 1 (inside)", got)
	}
	if got := InCircle(a, b, c, Pt(2, 0)); got != -1 {
		t.Errorf("far point: got %d, want -1 (outside)", got)
	}
	if got := InCircle(a, b, c, Pt(0, -1)); got != 0 {
		t.Errorf("on-circle point: got %d, want 0", got)
	}
}

func TestInCircleMatchesDistanceToCircumcenter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		if Orient(a, b, c) != CounterClockwise {
			b, c = c, b
		}
		if Orient(a, b, c) != CounterClockwise {
			continue // collinear draw
		}
		d := Pt(rng.Float64()*100, rng.Float64()*100)
		cc, ok := Circumcenter(a, b, c)
		if !ok {
			continue
		}
		r2 := cc.Dist2(a)
		dd := cc.Dist2(d)
		if math.Abs(dd-r2) < 1e-6*r2 {
			continue // too close to the circle to compare against floats
		}
		want := -1
		if dd < r2 {
			want = 1
		}
		if got := InCircle(a, b, c, d); got != want {
			t.Fatalf("InCircle(%v,%v,%v,%v) = %d, want %d", a, b, c, d, got, want)
		}
	}
}

// TestInCircleRoundFreeAgreesWithExact: whenever the round-free stage
// certifies a sign it is the big-arithmetic sign — on small integers (where
// it must certify, cocircular quadruples included), on full-mantissa
// floats, and at magnitudes where products overflow or underflow.
func TestInCircleRoundFreeAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	draw := map[string]func() float64{
		"integers":  func() float64 { return float64(rng.Intn(40)) },
		"quarters":  func() float64 { return float64(rng.Intn(4000)) / 4 },
		"floats":    func() float64 { return rng.Float64() * 1000 },
		"mixed":     func() float64 { return float64(rng.Intn(10)) + float64(rng.Intn(2))*rng.Float64()*1e-9 },
		"huge":      func() float64 { return float64(rng.Intn(40)) * 1e150 },
		"tiny":      func() float64 { return float64(rng.Intn(40)) * 1e-160 },
		"subnormal": func() float64 { return float64(rng.Intn(40)) * 5e-324 },
	}
	for name, f := range draw {
		certified, zeros := 0, 0
		for i := 0; i < 4000; i++ {
			a, b, c, d := Pt(f(), f()), Pt(f(), f()), Pt(f(), f()), Pt(f(), f())
			got, ok := inCircleRoundFree(a, b, c, d)
			if !ok {
				continue
			}
			certified++
			want := inCircleExact(a, b, c, d)
			if got != want {
				t.Fatalf("%s: round-free InCircle(%v,%v,%v,%v) = %d, exact %d", name, a, b, c, d, got, want)
			}
			if want == 0 {
				zeros++
			}
		}
		switch name {
		case "integers", "quarters":
			if certified != 4000 || (name == "integers" && zeros == 0) {
				t.Errorf("%s: %d of 4000 certified, %d on the circle", name, certified, zeros)
			}
		case "huge", "tiny", "subnormal":
			if certified == 4000 {
				t.Errorf("%s: every draw certified although products leave the float range", name)
			}
		}
	}
	// The lattice case end to end: four corners of a unit square.
	if got := InCircle(Pt(3, 3), Pt(4, 3), Pt(4, 4), Pt(3, 4)); got != 0 {
		t.Errorf("unit square: InCircle = %d, want 0", got)
	}
}

func TestCircumcenterEquidistant(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		c := Pt(clampCoord(cx), clampCoord(cy))
		cc, ok := Circumcenter(a, b, c)
		if !ok {
			return true // collinear: nothing to verify
		}
		da, db, dc := cc.Dist(a), cc.Dist(b), cc.Dist(c)
		scale := da + 1
		return math.Abs(da-db) < 1e-6*scale && math.Abs(da-dc) < 1e-6*scale
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestCircumcenterCollinear(t *testing.T) {
	if _, ok := Circumcenter(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Error("collinear points should have no circumcenter")
	}
	if r2 := Circumradius2(Pt(0, 0), Pt(1, 1), Pt(2, 2)); !math.IsInf(r2, 1) {
		t.Errorf("collinear circumradius = %g, want +Inf", r2)
	}
}

func TestBisectorHalfPlane(t *testing.T) {
	a, b := Pt(0, 0), Pt(4, 0)
	h := BisectorHalfPlane(a, b)
	if !h.Contains(Pt(1, 5)) {
		t.Error("point nearer a should be inside")
	}
	if h.Contains(Pt(3, 5)) {
		t.Error("point nearer b should be outside")
	}
	if !h.Contains(Pt(2, -7)) {
		t.Error("equidistant point should be inside (closed half-plane)")
	}
}

func TestBisectorHalfPlaneProperty(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by, px, py float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		p := Pt(clampCoord(px), clampCoord(py))
		if a.Eq(b) {
			return true
		}
		h := BisectorHalfPlane(a, b)
		da, db := p.Dist2(a), p.Dist2(b)
		if math.Abs(da-db) < 1e-6*(da+db+1) {
			return true // boundary: tolerance-dependent
		}
		return h.Contains(p) == (da < db)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestClipHalfPlane(t *testing.T) {
	square := RectPolygon(NewRect(Pt(0, 0), Pt(2, 2)))
	// Keep the left half: x <= 1.
	left := square.ClipHalfPlane(HalfPlane{N: Pt(1, 0), C: 1})
	if got := left.Area(); math.Abs(got-2) > 1e-9 {
		t.Errorf("left-half area = %g, want 2", got)
	}
	// Clip away everything.
	empty := square.ClipHalfPlane(HalfPlane{N: Pt(1, 0), C: -1})
	if len(empty) != 0 {
		t.Errorf("expected empty polygon, got %v", empty)
	}
	// Clip that keeps everything.
	all := square.ClipHalfPlane(HalfPlane{N: Pt(1, 0), C: 10})
	if got := all.Area(); math.Abs(got-4) > 1e-9 {
		t.Errorf("full area = %g, want 4", got)
	}
}

func TestIntersectHalfPlanesVoronoiCell(t *testing.T) {
	// The Voronoi cell of the center of a 3x3 grid is the unit square
	// centered on it.
	bounds := NewRect(Pt(-10, -10), Pt(10, 10))
	center := Pt(0, 0)
	var hs []HalfPlane
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			hs = append(hs, BisectorHalfPlane(center, Pt(float64(dx), float64(dy))))
		}
	}
	cell := IntersectHalfPlanes(bounds, hs)
	if got := cell.Area(); math.Abs(got-1) > 1e-9 {
		t.Errorf("center cell area = %g, want 1", got)
	}
	if !cell.Contains(Pt(0.2, -0.2)) {
		t.Error("cell should contain nearby point")
	}
	if cell.Contains(Pt(0.9, 0)) {
		t.Error("cell should not contain point nearer to (1,0)")
	}
}

func TestPolygonAreaCentroid(t *testing.T) {
	tri := Polygon{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	if got := tri.Area(); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("triangle area = %g, want 4.5", got)
	}
	c := tri.Centroid()
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Errorf("triangle centroid = %v, want (1,1)", c)
	}
	cw := Polygon{Pt(0, 0), Pt(0, 3), Pt(3, 0)}
	if got := cw.Area(); math.Abs(got+4.5) > 1e-12 {
		t.Errorf("clockwise area = %g, want -4.5", got)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := RectPolygon(NewRect(Pt(0, 0), Pt(4, 4)))
	if !sq.Contains(Pt(2, 2)) || !sq.Contains(Pt(0, 2)) {
		t.Error("interior/boundary points misclassified")
	}
	if sq.Contains(Pt(5, 2)) || sq.Contains(Pt(-0.001, 2)) {
		t.Error("exterior points misclassified")
	}
	if (Polygon{Pt(0, 0), Pt(1, 1)}).Contains(Pt(0.5, 0.5)) {
		t.Error("degenerate polygon should contain nothing")
	}
}

func TestPolygonDedup(t *testing.T) {
	p := Polygon{Pt(0, 0), Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(1, 1), Pt(0, 1), Pt(0, 0)}
	d := p.Dedup()
	if len(d) != 4 {
		t.Errorf("Dedup kept %d vertices, want 4: %v", len(d), d)
	}
}

func TestLerpMid(t *testing.T) {
	if got := Lerp(Pt(0, 0), Pt(10, 20), 0.25); !got.Eq(Pt(2.5, 5)) {
		t.Errorf("Lerp = %v", got)
	}
	if got := Mid(Pt(-2, 4), Pt(6, 0)); !got.Eq(Pt(2, 2)) {
		t.Errorf("Mid = %v", got)
	}
}
