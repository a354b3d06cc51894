package vortree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Swap describes one adjacency of an order-k Voronoi cell: crossing the
// cell edge supported by the bisector of (Out, In) replaces Out with In in
// the kNN set.
type Swap struct {
	Out, In int
}

// CellSwaps returns the swaps across the edges of the order-k Voronoi cell
// of knn, computed against the given candidate set (pass the INS; by
// Theorem 1 it always suffices). Each swap corresponds to one neighboring
// order-k cell in the sense of Definition 2; the In objects over all swaps
// are exactly the MIS.
func (ix *Index) CellSwaps(knn, candidates []int) ([]Swap, error) {
	tp, err := ix.taggedOrderKCell(knn, candidates)
	if err != nil {
		return nil, err
	}
	seen := make(map[Swap]bool)
	var out []Swap
	for _, tag := range tp.tags {
		if tag == boundaryEdge {
			continue
		}
		s := Swap{Out: tag.knnID, In: tag.otherID}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Out != out[j].Out {
			return out[i].Out < out[j].Out
		}
		return out[i].In < out[j].In
	})
	return out, nil
}

// Region is one cell of the order-k Voronoi diagram: the k sites whose
// kNN region it is (sorted) and the cell polygon clipped to the diagram
// bounds.
type Region struct {
	Sites []int
	Cell  geom.Polygon
}

// EnumerateOrderK materializes every order-k Voronoi cell intersecting the
// diagram bounds, by breadth-first traversal of the cell adjacency graph:
// starting from the kNN set of an interior point, each cell's swaps
// (Definition 2 adjacencies) yield its neighboring cells. This is the
// precomputation that reference [2] of the paper performs and that the
// paper argues is impractical — the number of cells grows rapidly with k,
// which experiment E12 measures with exactly this function.
//
// It returns an error if k is out of range. Cells with empty clipped
// polygons (entirely outside bounds) are not returned.
func (ix *Index) EnumerateOrderK(k int) ([]Region, error) {
	if n := ix.Len(); k < 1 || k > n {
		return nil, fmt.Errorf("vortree: enumerate order-%d of %d objects", k, n)
	}
	// Seed: the kNN set at the bounds center (always a nonempty cell).
	seed := ix.KNN(ix.Bounds().Center(), k)
	sort.Ints(seed)

	var regions []Region
	visited := map[string]bool{setKey(seed): true}
	queue := [][]int{seed}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		ins, err := ix.INS(cur)
		if err != nil {
			return nil, err
		}
		cell, err := ix.OrderKCell(cur, ins)
		if err != nil {
			return nil, err
		}
		if len(cell) < 3 {
			continue // clipped away: outside bounds
		}
		regions = append(regions, Region{Sites: append([]int(nil), cur...), Cell: cell})
		swaps, err := ix.CellSwaps(cur, ins)
		if err != nil {
			return nil, err
		}
		for _, s := range swaps {
			next := swapSet(cur, s)
			key := setKey(next)
			if !visited[key] {
				visited[key] = true
				queue = append(queue, next)
			}
		}
	}
	return regions, nil
}

// swapSet returns the sorted set cur with s applied.
func swapSet(cur []int, s Swap) []int {
	out := make([]int, 0, len(cur))
	for _, id := range cur {
		if id != s.Out {
			out = append(out, id)
		}
	}
	out = append(out, s.In)
	sort.Ints(out)
	return out
}

// setKey canonicalizes a sorted id set as a map key.
func setKey(ids []int) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}
