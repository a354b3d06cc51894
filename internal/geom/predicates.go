package geom

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// Orientation classifies the turn direction of an ordered point triple.
type Orientation int

// Possible results of Orient.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// orientErrBound is the relative rounding-error bound for the 2x2
// determinant used by Orient. Following Shewchuk's analysis, the float64
// evaluation of (b-a)×(c-a) is exact up to (3+16ε)ε times the sum of the
// absolute values of the two products; we use a slightly looser constant
// which is still a certified filter.
var orientErrBound = (3.0 + 16.0*ulpHalf) * ulpHalf

const ulpHalf = 1.1102230246251565e-16 // 2^-53, half a unit in the last place

// Orient returns the orientation of the triple (a, b, c): CounterClockwise
// when c lies to the left of the directed line a->b, Clockwise when it lies
// to the right, and Collinear when the three points are exactly collinear.
// The result is exact: a floating-point filter decides the common case and
// integer arithmetic resolves near-degenerate inputs.
func Orient(a, b, c Point) Orientation {
	detLeft := (b.X - a.X) * (c.Y - a.Y)
	detRight := (b.Y - a.Y) * (c.X - a.X)
	det := detLeft - detRight

	var detSum float64
	switch {
	case detLeft > 0:
		if detRight <= 0 {
			return sign(det)
		}
		detSum = detLeft + detRight
	case detLeft < 0:
		if detRight >= 0 {
			return sign(det)
		}
		detSum = -detLeft - detRight
	default:
		return sign(-detRight)
	}

	if math.Abs(det) > orientErrBound*detSum {
		return sign(det)
	}
	return orientExact(a, b, c)
}

func sign(v float64) Orientation {
	switch {
	case v > 0:
		return CounterClockwise
	case v < 0:
		return Clockwise
	}
	return Collinear
}

func orientExact(a, b, c Point) Orientation {
	s := exactPool.Get().(*exactScratch)
	defer exactPool.Put(s)
	s.load(a, b, c)
	ax, ay, bx, by, cx, cy := &s.v[0], &s.v[1], &s.v[2], &s.v[3], &s.v[4], &s.v[5]
	// (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	bx.Sub(bx, ax)
	by.Sub(by, ay)
	cx.Sub(cx, ax)
	cy.Sub(cy, ay)
	l, r := &s.t[0], &s.t[1]
	l.Mul(bx, cy)
	r.Mul(by, cx)
	return Orientation(l.Cmp(r))
}

// inCircleErrBound is the certified filter bound for InCircle, again
// following the structure of Shewchuk's bounds with a loose constant.
var inCircleErrBound = (10.0 + 96.0*ulpHalf) * ulpHalf

// InCircle reports whether point d lies strictly inside the circle through
// a, b and c, which must be in counter-clockwise order. It returns +1 when
// d is inside, -1 when outside, and 0 when d lies exactly on the circle.
// Like Orient it uses a floating-point filter with an exact fallback; in
// between, a round-free re-evaluation settles the exactly cocircular inputs
// that structured data is full of without big arithmetic.
func InCircle(a, b, c, d Point) int {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	if math.Abs(det) > inCircleErrBound*permanent {
		switch {
		case det > 0:
			return 1
		case det < 0:
			return -1
		}
		return 0
	}
	if s, ok := inCircleRoundFree(a, b, c, d); ok {
		return s
	}
	return inCircleExact(a, b, c, d)
}

// inCircleRoundFree re-evaluates the in-circle determinant in float64 and
// certifies it when no operation rounded: every difference and sum is
// checked with Knuth's two-sum error term and every product with a fused
// multiply-add, and if all the error terms are zero the float result IS the
// exact determinant, sign and zero included. That is the case the filter
// cannot decide but that needs no big arithmetic: exactly cocircular points
// with short mantissas — integer lattices, street grids — where the exact
// answer is 0 and every legalization of a bulk build asks for it.
func inCircleRoundFree(a, b, c, d Point) (int, bool) {
	ok := true
	sub := func(x, y float64) float64 {
		s := x - y
		yv := x - s
		if (x-(s+yv))+(yv-y) != 0 {
			ok = false
		}
		return s
	}
	add := func(x, y float64) float64 { return sub(x, -y) }
	mul := func(x, y float64) float64 {
		p := x * y
		// A product that underflows can hide its rounding error from the
		// fused multiply-add; leave those to the big fallback.
		if math.FMA(x, y, -p) != 0 || (math.Abs(p) < 1e-250 && x != 0 && y != 0) {
			ok = false
		}
		return p
	}
	adx, ady := sub(a.X, d.X), sub(a.Y, d.Y)
	bdx, bdy := sub(b.X, d.X), sub(b.Y, d.Y)
	cdx, cdy := sub(c.X, d.X), sub(c.Y, d.Y)
	lift := func(x, y float64) float64 { return add(mul(x, x), mul(y, y)) }
	cross := func(px, py, qx, qy float64) float64 { return sub(mul(px, qy), mul(qx, py)) }
	det := add(add(mul(lift(adx, ady), cross(bdx, bdy, cdx, cdy)),
		mul(lift(bdx, bdy), cross(cdx, cdy, adx, ady))),
		mul(lift(cdx, cdy), cross(adx, ady, bdx, bdy)))
	// An overflow anywhere leaves a NaN error term, which clears ok too.
	return int(sign(det)), ok
}

func inCircleExact(a, b, c, d Point) int {
	s := exactPool.Get().(*exactScratch)
	defer exactPool.Put(s)
	s.load(a, b, c, d)
	ax, ay, bx, by, cx, cy, dx, dy := &s.v[0], &s.v[1], &s.v[2], &s.v[3], &s.v[4], &s.v[5], &s.v[6], &s.v[7]
	ax.Sub(ax, dx)
	ay.Sub(ay, dy)
	bx.Sub(bx, dx)
	by.Sub(by, dy)
	cx.Sub(cx, dx)
	cy.Sub(cy, dy)
	det := dx.SetInt64(0) // d's coordinates are spent
	s.addTerm(det, ax, ay, bx, by, cx, cy)
	s.addTerm(det, bx, by, cx, cy, ax, ay)
	s.addTerm(det, cx, cy, ax, ay, bx, by)
	return det.Sign()
}

// exactScratch holds the integers of one exact evaluation. The fallbacks
// take it from exactPool and put it back, so its backing arrays are reused
// from call to call and a warmed-up evaluation of coordinates of one
// magnitude allocates nothing; a pool rather than one global because the
// predicates are called from concurrent readers.
type exactScratch struct {
	v [8]big.Int // the coordinates, at the call's common scale
	t [3]big.Int // products and their sums
}

var exactPool = sync.Pool{New: func() any { return new(exactScratch) }}

// load sets the first 2·len(ps) integers of s.v to the coordinates of ps,
// x then y, each multiplied by the same power of two: 2^-e, where 2^e is
// the least place value of any set bit among them. Every coordinate
// becomes an integer that way — a float64 is an integer mantissa times a
// power of two — and the predicates' determinants are homogeneous
// polynomials in the coordinates, so scaling all of them by a positive
// power of two keeps the sign. Nothing is divided and no fraction is
// normalised. A non-finite coordinate has no such integer; it panics.
func (s *exactScratch) load(ps ...Point) {
	var mant [8]int64
	var exp [8]int
	least := math.MaxInt
	for i, p := range ps {
		for j, f := range [2]float64{p.X, p.Y} {
			k := 2*i + j
			mant[k], exp[k] = split(f)
			if mant[k] != 0 {
				least = min(least, exp[k])
			}
		}
	}
	for k := range 2 * len(ps) {
		z := s.v[k].SetInt64(mant[k])
		if mant[k] != 0 {
			z.Lsh(z, uint(exp[k]-least))
		}
	}
}

// split returns f as m·2^e with m odd, or m = 0 when f is 0.
func split(f float64) (m int64, e int) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("geom: exact predicate on a non-finite coordinate")
	}
	if f == 0 {
		return 0, 0
	}
	frac, exp := math.Frexp(f)  // f = frac·2^exp, 1/2 <= |frac| < 1
	m = int64(frac * (1 << 53)) // exact: frac has at most 53 bits
	tz := bits.TrailingZeros64(uint64(m))
	return m >> tz, exp - 53 + tz
}

// addTerm adds lift(p)·cross(q, r) to det: (px²+py²)·(qx·ry − rx·qy), one
// of the three cofactor terms of the in-circle determinant.
func (s *exactScratch) addTerm(det, px, py, qx, qy, rx, ry *big.Int) {
	cross, lift, tmp := &s.t[0], &s.t[1], &s.t[2]
	cross.Mul(qx, ry)
	tmp.Mul(rx, qy)
	cross.Sub(cross, tmp)
	lift.Mul(px, px)
	tmp.Mul(py, py)
	lift.Add(lift, tmp)
	tmp.Mul(lift, cross)
	det.Add(det, tmp)
}

// Circumcenter returns the center of the circle through a, b and c. The
// second return value is false when the points are (near-)collinear and no
// finite circumcenter exists.
func Circumcenter(a, b, c Point) (Point, bool) {
	bx, by := b.X-a.X, b.Y-a.Y
	cx, cy := c.X-a.X, c.Y-a.Y
	d := 2 * (bx*cy - by*cx)
	if d == 0 || math.IsInf(d, 0) || math.IsNaN(d) {
		return Point{}, false
	}
	bl := bx*bx + by*by
	cl := cx*cx + cy*cy
	ux := (cy*bl - by*cl) / d
	uy := (bx*cl - cx*bl) / d
	if math.IsNaN(ux) || math.IsNaN(uy) || math.IsInf(ux, 0) || math.IsInf(uy, 0) {
		return Point{}, false
	}
	return Point{a.X + ux, a.Y + uy}, true
}
