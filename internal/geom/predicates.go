package geom

import (
	"math"
	"math/big"
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
// big.Rat arithmetic resolves near-degenerate inputs.
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
	ax, ay := new(big.Rat).SetFloat64(a.X), new(big.Rat).SetFloat64(a.Y)
	bx, by := new(big.Rat).SetFloat64(b.X), new(big.Rat).SetFloat64(b.Y)
	cx, cy := new(big.Rat).SetFloat64(c.X), new(big.Rat).SetFloat64(c.Y)
	// (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	l := new(big.Rat).Mul(new(big.Rat).Sub(bx, ax), new(big.Rat).Sub(cy, ay))
	r := new(big.Rat).Mul(new(big.Rat).Sub(by, ay), new(big.Rat).Sub(cx, ax))
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

// Circumradius2 returns the squared circumradius of the triangle abc, or
// +Inf when the points are collinear.
func Circumradius2(a, b, c Point) float64 {
	cc, ok := Circumcenter(a, b, c)
	if !ok {
		return math.Inf(1)
	}
	return cc.Dist2(a)
}
