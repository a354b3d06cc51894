package baseline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/vortree"
)

// PrecomputedOrderKPlane is the precomputation approach of reference [2]:
// materialize the entire order-k Voronoi diagram up front, index the cells
// for point location, and answer every timestamp by locating the cell the
// query is in. Per-step work is tiny; the construction pays for the full
// diagram, whose cell count grows rapidly with k — the blow-up the paper
// calls "unpractical", measured by experiment E12.
//
// The dataset must be static: object updates invalidate the whole
// precomputation (another drawback of this approach the paper notes).
type PrecomputedOrderKPlane struct {
	k       int
	m       metrics.Counters
	regions []vortree.Region
	cur     int // index of the current region, -1 if unknown

	// grid buckets region indices by bounding-box overlap for point
	// location.
	grid     map[[2]int][]int
	cellSize float64
	origin   geom.Point

	// BuildTime records how long the precomputation took; NumCells how
	// many order-k cells intersect the data space.
	BuildTime time.Duration
	NumCells  int
}

// NewPrecomputedOrderKPlane enumerates the order-k Voronoi diagram of the
// index's objects. It can take a long time for large k or n — that is the
// method's documented cost.
func NewPrecomputedOrderKPlane(ix *vortree.Index, k int) (*PrecomputedOrderKPlane, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k = %d, must be >= 1", k)
	}
	if ix.Len() < k {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewObjects, ix.Len(), k)
	}
	start := time.Now()
	regions, err := ix.EnumerateOrderK(k)
	if err != nil {
		return nil, fmt.Errorf("baseline: enumerate order-%d: %w", k, err)
	}
	bounds := ix.Bounds()
	// Grid resolution: aim for a few regions per bucket.
	side := int(math.Sqrt(float64(len(regions)))) + 1
	q := &PrecomputedOrderKPlane{
		k:        k,
		regions:  regions,
		cur:      -1,
		grid:     make(map[[2]int][]int),
		cellSize: math.Max(bounds.Width(), bounds.Height()) / float64(side),
		origin:   bounds.Min,
		NumCells: len(regions),
	}
	for i, r := range regions {
		bb := r.Cell.Bounds()
		for _, key := range q.bucketRange(bb) {
			q.grid[key] = append(q.grid[key], i)
		}
	}
	q.BuildTime = time.Since(start)
	return q, nil
}

func (q *PrecomputedOrderKPlane) bucket(p geom.Point) [2]int {
	return [2]int{
		int(math.Floor((p.X - q.origin.X) / q.cellSize)),
		int(math.Floor((p.Y - q.origin.Y) / q.cellSize)),
	}
}

func (q *PrecomputedOrderKPlane) bucketRange(r geom.Rect) [][2]int {
	lo, hi := q.bucket(r.Min), q.bucket(r.Max)
	var out [][2]int
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			out = append(out, [2]int{x, y})
		}
	}
	return out
}

// Name implements the processor contract.
func (q *PrecomputedOrderKPlane) Name() string { return "orderk-precomputed" }

// Metrics returns the accumulated cost counters.
func (q *PrecomputedOrderKPlane) Metrics() *metrics.Counters { return &q.m }

// Current returns the kNN set from the last Update.
func (q *PrecomputedOrderKPlane) Current() []int {
	if q.cur < 0 {
		return nil
	}
	return q.regions[q.cur].Sites
}

// Update locates the cell containing p: first a point-in-polygon test on
// the current cell (the common case), then a grid-bucket lookup. A cell
// change counts as a recomputation in the communication sense (the new
// result set is shipped), although nothing is computed — the cost of this
// method lives entirely in its construction.
func (q *PrecomputedOrderKPlane) Update(p geom.Point) ([]int, error) {
	q.m.Timestamps++
	if q.cur >= 0 {
		q.m.Validations++
		q.m.DistanceCalcs += len(q.regions[q.cur].Cell)
		if q.regions[q.cur].Cell.Contains(p) {
			return q.regions[q.cur].Sites, nil
		}
		q.m.Invalidations++
	}
	for _, i := range q.grid[q.bucket(p)] {
		q.m.DistanceCalcs += len(q.regions[i].Cell)
		if q.regions[i].Cell.Contains(p) {
			if i != q.cur {
				q.m.Recomputations++
				q.m.ObjectsShipped += q.k
			}
			q.cur = i
			return q.regions[i].Sites, nil
		}
	}
	// Numerical slack at shared edges: fall back to a full scan before
	// giving up.
	for i := range q.regions {
		if q.regions[i].Cell.Contains(p) {
			if i != q.cur {
				q.m.Recomputations++
				q.m.ObjectsShipped += q.k
			}
			q.cur = i
			return q.regions[i].Sites, nil
		}
	}
	return nil, fmt.Errorf("baseline: point %v in no order-%d cell", p, q.k)
}
