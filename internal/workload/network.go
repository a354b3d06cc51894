package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// Network generates the canonical synthetic road network the serving
// stack uses: a grid×grid jittered street grid inside bounds with random
// detour factors, deterministic in seed. A client that builds it from the
// same (grid, bounds, seed) knobs as insqd addresses the exact vertices
// insqd serves — the network counterpart of the shared Uniform object set.
func Network(grid int, bounds geom.Rect, seed int64) (*roadnet.Graph, error) {
	if grid < 2 {
		return nil, fmt.Errorf("workload: network grid %d, must be >= 2", grid)
	}
	return roadnet.GridNetwork(grid, grid, bounds, 0.2, 0.3, seed)
}

// NetworkSites picks n distinct vertices of g as the initial data-object
// sites, deterministic in seed.
func NetworkSites(g *roadnet.Graph, n int, seed int64) ([]int, error) {
	if n < 1 || n > g.NumVertices() {
		return nil, fmt.Errorf("workload: %d sites out of range [1, %d]", n, g.NumVertices())
	}
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(g.NumVertices())[:n], nil
}
