package geom

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
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
	if r.Width() != 4 || r.Height() != 4 || r.Area() != 16 {
		t.Errorf("dimensions wrong: w=%g h=%g a=%g", r.Width(), r.Height(), r.Area())
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
	c := NewRect(Pt(5, 5), Pt(6, 6))
	e := a.Expand(c)
	if !e.ContainsRect(a) || !e.ContainsRect(c) {
		t.Error("Expand does not contain inputs")
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
// certifies a sign it is the exact stage's sign — on small integers (where
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

// ratOrient and ratInCircle are the reference the exact stage is checked
// against: the same determinants in big.Rat, every coordinate as the
// fraction it is.
func ratOrient(a, b, c Point) Orientation {
	ax, ay := new(big.Rat).SetFloat64(a.X), new(big.Rat).SetFloat64(a.Y)
	bx, by := new(big.Rat).SetFloat64(b.X), new(big.Rat).SetFloat64(b.Y)
	cx, cy := new(big.Rat).SetFloat64(c.X), new(big.Rat).SetFloat64(c.Y)
	// (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	l := new(big.Rat).Mul(new(big.Rat).Sub(bx, ax), new(big.Rat).Sub(cy, ay))
	r := new(big.Rat).Mul(new(big.Rat).Sub(by, ay), new(big.Rat).Sub(cx, ax))
	return Orientation(l.Cmp(r))
}

func ratInCircle(a, b, c, d Point) int {
	rat := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	adx := new(big.Rat).Sub(rat(a.X), rat(d.X))
	ady := new(big.Rat).Sub(rat(a.Y), rat(d.Y))
	bdx := new(big.Rat).Sub(rat(b.X), rat(d.X))
	bdy := new(big.Rat).Sub(rat(b.Y), rat(d.Y))
	cdx := new(big.Rat).Sub(rat(c.X), rat(d.X))
	cdy := new(big.Rat).Sub(rat(c.Y), rat(d.Y))

	lift := func(x, y *big.Rat) *big.Rat {
		return new(big.Rat).Add(new(big.Rat).Mul(x, x), new(big.Rat).Mul(y, y))
	}
	det2 := func(p, q, r, s *big.Rat) *big.Rat { // p*s - q*r
		return new(big.Rat).Sub(new(big.Rat).Mul(p, s), new(big.Rat).Mul(q, r))
	}

	det := new(big.Rat)
	det.Add(det, new(big.Rat).Mul(lift(adx, ady), det2(bdx, cdx, bdy, cdy)))
	det.Sub(det, new(big.Rat).Mul(lift(bdx, bdy), det2(adx, cdx, ady, cdy)))
	det.Add(det, new(big.Rat).Mul(lift(cdx, cdy), det2(adx, bdx, ady, bdy)))
	return det.Sign()
}

// TestExactPredicatesMatchRational: the exact stages of Orient and
// InCircle, called directly so that every draw reaches them, give the
// rational sign on the round-free test's classes and on the inputs that
// stress a common integer scale: super-triangle corners (±6·10⁹ plus a
// full-mantissa fraction) among small coordinates, coordinates 600 binary
// orders of magnitude apart, subnormals and signed zeros, and lattice
// points nudged one ulp off their circle. The rational reference is slow
// on the wide classes, which -short samples more thinly.
func TestExactPredicatesMatchRational(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pick := func(fs ...float64) float64 { return fs[rng.Intn(len(fs))] }
	signed := func(f float64) float64 { return pick(1, -1) * f }
	draw := map[string]func() float64{
		"integers":  func() float64 { return float64(rng.Intn(40)) },
		"quarters":  func() float64 { return float64(rng.Intn(4000)) / 4 },
		"floats":    func() float64 { return rng.Float64() * 1000 },
		"mixed":     func() float64 { return float64(rng.Intn(10)) + float64(rng.Intn(2))*rng.Float64()*1e-9 },
		"huge":      func() float64 { return float64(rng.Intn(40)) * 1e150 },
		"tiny":      func() float64 { return float64(rng.Intn(40)) * 1e-160 },
		"subnormal": func() float64 { return float64(rng.Intn(40)) * 5e-324 },
		"zeros": func() float64 {
			return pick(0, math.Copysign(0, -1), 5e-324, -5e-324, 1, math.SmallestNonzeroFloat64*(1<<52))
		},
		"extremes": func() float64 { return signed(rng.Float64() * pick(1e-300, 1, 1e300)) },
	}
	wide := map[string]bool{"huge": true, "tiny": true, "subnormal": true, "zeros": true, "extremes": true}
	for name, f := range draw {
		n := 3000
		if wide[name] && (testing.Short() || raceEnabled) {
			n = 300
		}
		for i := 0; i < n; i++ {
			a, b, c, d := Pt(f(), f()), Pt(f(), f()), Pt(f(), f()), Pt(f(), f())
			checkExact(t, name, a, b, c, d)
		}
	}
	for i := 0; i < 3000; i++ {
		// One super corner among three points of the bounds, in any slot,
		// as on the faces a build hands to the exact stage; now and then
		// two.
		var q [4]Point
		for j := range q {
			q[j] = Pt(rng.Float64()*10000, rng.Float64()*10000)
		}
		for j := 0; j < 1+rng.Intn(2); j++ {
			q[rng.Intn(4)] = Pt(signed(6e9)+rng.Float64(), signed(2e9)+rng.Float64())
		}
		checkExact(t, "super", q[0], q[1], q[2], q[3])
	}
	for i := 0; i < 3000; i++ {
		// Four lattice points, the last pushed one ulp along either axis:
		// on the circle, or as near it as a float gets.
		l := func() float64 { return float64(rng.Intn(40)) }
		a, b, c, d := Pt(l(), l()), Pt(l(), l()), Pt(l(), l()), Pt(l(), l())
		d.X = math.Nextafter(d.X, pick(math.Inf(1), math.Inf(-1), d.X))
		d.Y = math.Nextafter(d.Y, pick(math.Inf(1), math.Inf(-1), d.Y))
		checkExact(t, "nudged", a, b, c, d)
	}
}

// TestExactPredicatesConcurrent: readers call the predicates at once, and
// the exact stage's pooled scratch keeps their evaluations apart.
func TestExactPredicatesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type quad struct {
		q    [4]Point
		want int
	}
	quads := make([]quad, 200)
	for i := range quads {
		q := &quads[i].q
		for j := range q {
			q[j] = Pt(rng.Float64()*10000, rng.Float64()*10000)
		}
		q[rng.Intn(4)] = Pt(-6e9+rng.Float64(), -2e9+rng.Float64()*math.Pow(2, float64(rng.Intn(60))))
		quads[i].want = ratInCircle(q[0], q[1], q[2], q[3])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for _, x := range quads {
					if got := inCircleExact(x.q[0], x.q[1], x.q[2], x.q[3]); got != x.want {
						t.Errorf("exact InCircle(%v) = %d, rational %d", x.q, got, x.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func checkExact(t *testing.T, class string, a, b, c, d Point) {
	t.Helper()
	if got, want := inCircleExact(a, b, c, d), ratInCircle(a, b, c, d); got != want {
		t.Fatalf("%s: exact InCircle(%v,%v,%v,%v) = %d, rational %d", class, a, b, c, d, got, want)
	}
	if got, want := orientExact(a, b, d), ratOrient(a, b, d); got != want {
		t.Fatalf("%s: exact Orient(%v,%v,%v) = %v, rational %v", class, a, b, d, got, want)
	}
}

// TestExactInCircleAllocs: a warmed-up exact stage reuses its pooled
// integers, so an in-circle test on a face with a super-triangle corner —
// the quadruple is one a 100k-point build hands to the exact stage —
// allocates nothing. The count is not taken under the race detector.
func TestExactInCircleAllocs(t *testing.T) {
	a, b, c := Pt(0.8930048089409783, 1.952291892950984), Pt(2.8587202818748603, 0.13832481362499474), Pt(7.725494971708584, 0.33149027291007466)
	d := Pt(-6.299995e+08, -2.099995e+08)
	if _, ok := inCircleRoundFree(a, b, c, d); ok {
		t.Fatal("the round-free stage certifies the quadruple; it would not reach the exact stage")
	}
	want := ratInCircle(a, b, c, d)
	if got := InCircle(a, b, c, d); got != want {
		t.Fatalf("InCircle = %d, rational %d", got, want)
	}
	if raceEnabled {
		return
	}
	const budget = 0 // pooled scratch: the pool hands the same integers back
	if n := testing.AllocsPerRun(200, func() { InCircle(a, b, c, d) }); n > budget {
		t.Errorf("exact InCircle allocates %.1f times a call, budget %d", n, budget)
	}
	if n := testing.AllocsPerRun(200, func() { orientExact(a, b, d) }); n > budget {
		t.Errorf("exact Orient allocates %.1f times a call, budget %d", n, budget)
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
