package main

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

var bounds = geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(space, space)}

// datasetSeed generates every workload's data set; see inputs for why it
// does not follow the run's seed.
const datasetSeed = 1

// inputs is everything the program under test is fed. Two seeds generate
// it. The data set — plane objects, or street grid and sites — comes from
// the fixed datasetSeed: it is part of the workload's definition, like
// its size, because an R-tree built by insertion varies
// by up to 2x in node visits per search between two uniform data sets of
// the same size (11.9 to 22.2 measured over four seeds), and a benchmark
// that redraws that luck every run cannot resolve a 10% change. Everything
// that drives the run — where sessions start and how they move, the
// mutator's probe jitter and churn points, the recovery tail — comes from
// the run's -seed, so two runs with the same seed replay identical inputs
// and two seeds share no trajectory.
type inputs struct {
	sp   spec
	seed int64

	objects []geom.Point // plane dataset (ids are the slice indexes)
	sites   []int        // network dataset (site vertices)

	k    []int  // per session
	slow []bool // per session: slowStep instead of fastStep

	// Trajectories, session-major: session i owns [i*TrajLen, (i+1)*TrajLen).
	planeTraj []geom.Point
	netTraj   []roadnet.Position

	watched []int // session indexes with a push subscriber
	// targets are the watched sessions push probes are aimed at: slow
	// movers with k >= 5, so a probe dropped on the session's last known
	// position enters its kNN set even if one more step lands first.
	targets []int
}

// sub derives an independent generator seed for purpose p and item i.
func (in *inputs) sub(p, i int) int64 {
	return in.seed*1_000_003 + int64(p)*7_919 + int64(i)*104_729
}

// dataSub is sub for the data set's generators.
func dataSub(p int) int64 { return datasetSeed*1_000_003 + int64(p)*7_919 }

// graph builds the workload's street grid. Every set-up and every recovery
// gets a fresh copy, because a Graph caches derived search structures (CSR,
// ALT landmarks) that a real restart would have to rebuild.
func (in *inputs) graph() (*roadnet.Graph, error) {
	return workload.Network(in.sp.Grid, bounds, dataSub(1))
}

func generate(sp spec, seed int64) (*inputs, error) {
	in := &inputs{sp: sp, seed: seed}
	n := sp.Sessions
	in.k = make([]int, n)
	in.slow = make([]bool, n)
	for i := range in.k {
		in.k[i] = sessionKs[i%len(sessionKs)]
		in.slow[i] = (i/len(sessionKs))%2 == 0
	}
	step := func(i int) float64 {
		if in.slow[i] {
			return slowStep
		}
		return fastStep
	}
	if sp.Network {
		g, err := in.graph()
		if err != nil {
			return nil, err
		}
		in.sites, err = workload.NetworkSites(g, sp.Objects, dataSub(2))
		if err != nil {
			return nil, err
		}
		in.netTraj = make([]roadnet.Position, 0, n*sp.TrajLen)
		rng := rand.New(rand.NewSource(in.sub(3, 0)))
		for i := 0; i < n; i++ {
			length := step(i) * float64(sp.TrajLen)
			route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), length, in.sub(4, i))
			if err != nil {
				return nil, err
			}
			if route.Length() < length {
				return nil, fmt.Errorf("session %d: random walk stuck after %.0f of %.0f units", i, route.Length(), length)
			}
			for j := 0; j < sp.TrajLen; j++ {
				in.netTraj = append(in.netTraj, route.PositionAt(step(i)*float64(j)))
			}
		}
	} else {
		in.objects = workload.Uniform(sp.Objects, bounds, dataSub(2))
		in.planeTraj = make([]geom.Point, 0, n*sp.TrajLen)
		for i := 0; i < n; i++ {
			in.planeTraj = append(in.planeTraj,
				trajectory.RandomWaypoint(bounds, sp.TrajLen, step(i), in.sub(4, i))...)
		}
	}

	// Watched sessions are push targets spread evenly over the id range, so
	// every reader and shard carries some.
	eligible := func(i int) bool { return in.slow[i] && in.k[i] >= 5 }
	if sp.Watched >= n {
		for i := 0; i < n; i++ {
			in.watched = append(in.watched, i)
			if eligible(i) {
				in.targets = append(in.targets, i)
			}
		}
	} else {
		var pool []int
		for i := 0; i < n; i++ {
			if eligible(i) {
				pool = append(pool, i)
			}
		}
		if len(pool) < sp.Watched {
			return nil, fmt.Errorf("%d eligible push targets for %d watched sessions", len(pool), sp.Watched)
		}
		for j := 0; j < sp.Watched; j++ {
			in.watched = append(in.watched, pool[j*len(pool)/sp.Watched])
		}
		in.targets = in.watched
	}
	// A fixed pseudo-random visiting order decorrelates consecutive probes
	// from session id (and therefore from shard).
	in.targets = append([]int(nil), in.targets...)
	rand.New(rand.NewSource(in.sub(5, 0))).Shuffle(len(in.targets), func(a, b int) {
		in.targets[a], in.targets[b] = in.targets[b], in.targets[a]
	})
	return in, nil
}

// planeAt / netAt return session i's j-th trajectory position.
func (in *inputs) planeAt(i, j int) geom.Point     { return in.planeTraj[i*in.sp.TrajLen+j] }
func (in *inputs) netAt(i, j int) roadnet.Position { return in.netTraj[i*in.sp.TrajLen+j] }

// cursor walks one session's trajectory ping-pong: 0..L-1, then back down.
type cursor struct {
	idx int32
	dir int8
}

func (c *cursor) next(l int) int {
	if c.dir == 0 {
		c.dir = 1
	}
	n := int(c.idx) + int(c.dir)
	if n < 0 || n >= l {
		c.dir = -c.dir
		n = int(c.idx) + int(c.dir)
	}
	c.idx = int32(n)
	return n
}

// model is the harness's own account of the data set: which objects are
// live and where, built only from the inputs it generated and the
// mutations the system acknowledged. The oracle and the recovery check
// compare the system against it, never against the system's own state.
type model struct {
	network bool
	points  map[int]geom.Point // live plane objects by id
	sites   map[int]bool       // live network sites
	epoch   uint64             // acknowledged mutations so far
	fifo    []int              // removable objects, oldest first
}

func newModel(in *inputs) *model {
	m := &model{network: in.sp.Network}
	if m.network {
		m.sites = make(map[int]bool, len(in.sites))
		for _, v := range in.sites {
			m.sites[v] = true
		}
		return m
	}
	m.points = make(map[int]geom.Point, len(in.objects))
	for id, p := range in.objects {
		m.points[id] = p
		if !in.sp.Alternate {
			// Batch churn replaces the data set itself, oldest object first.
			m.fifo = append(m.fifo, id)
		}
	}
	return m
}

func (m *model) insert(id int, p geom.Point) {
	if m.network {
		m.sites[id] = true
	} else {
		m.points[id] = p
	}
	m.epoch++
	m.fifo = append(m.fifo, id)
}

func (m *model) remove(id int) {
	if m.network {
		delete(m.sites, id)
	} else {
		delete(m.points, id)
	}
	m.epoch++
}

// unqueue takes back the newest queued object (a probe its owner removes
// itself).
func (m *model) unqueue(id int) {
	if n := len(m.fifo); n > 0 && m.fifo[n-1] == id {
		m.fifo = m.fifo[:n-1]
	}
}

// oldest pops the next object due for removal.
func (m *model) oldest() (int, bool) {
	if len(m.fifo) == 0 {
		return 0, false
	}
	id := m.fifo[0]
	m.fifo = m.fifo[1:]
	return id, true
}

func (m *model) size() int {
	if m.network {
		return len(m.sites)
	}
	return len(m.points)
}
