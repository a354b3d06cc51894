// Package geom provides the 2D computational-geometry substrate used by the
// Voronoi, Delaunay and INS layers: points, vectors, segments, rectangles,
// robust orientation / in-circle predicates, circumcenters and convex
// polygon clipping.
//
// All coordinates are float64. The predicates use a floating-point filter
// with a certified error bound and fall back to exact integer arithmetic
// (big.Int, every coordinate scaled by one power of two) only when the
// filter cannot decide, so they are both fast on general-position inputs
// and correct on (near-)degenerate ones.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2D Euclidean plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Add returns p + q treated as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q treated as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns the vector p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and preserves ordering, so the kNN machinery uses it
// for comparisons throughout.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Lerp returns the point p + t*(q-p).
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Segment is a closed line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point A + t*(B-A); t in [0,1] spans the segment.
func (s Segment) At(t float64) Point { return Lerp(s.A, s.B, t) }

// DistPoint returns the distance from p to the closest point of the segment.
func (s Segment) DistPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	switch {
	case t <= 0:
		return p.Dist(s.A)
	case t >= 1:
		return p.Dist(s.B)
	}
	return p.Dist(s.A.Add(d.Scale(t)))
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner and
// Max at the upper-right corner. A Rect with Min==Max is a single point.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectOf returns the minimal bounding rectangle of the given points.
// It panics if pts is empty.
func RectOf(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectOf of empty point set")
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		r = r.ExpandPoint(p)
	}
	return r
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Expand returns the minimal rectangle containing both r and s.
func (r Rect) Expand(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ExpandPoint returns the minimal rectangle containing r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Inset returns r shrunk by d on every side (grown when d is negative).
func (r Rect) Inset(d float64) Rect {
	return Rect{Point{r.Min.X + d, r.Min.Y + d}, Point{r.Max.X - d, r.Max.Y - d}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point { return Mid(r.Min, r.Max) }

// Dist2Point returns the squared distance from p to the nearest point of r
// (zero when p is inside r). This is the MINDIST metric used by best-first
// R-tree traversal.
func (r Rect) Dist2Point(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return dx*dx + dy*dy
}
