package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/trajectory"
	"repro/internal/vortree"
)

// Microprobes time each layer's public functions directly, single-threaded,
// with fixed operation counts, on the workload's own dataset. A layer the
// workload does not use (netvor on the plane workloads, vortree on the
// network one, the wire layers everywhere but serve_pipeline) is not
// probed: its metrics read 0 in that workload's record.

// probeCounts are the probes' operation counts. Fixed for real runs, so two
// records compare like with like.
type probeCounts struct {
	Batches    int // engine batches
	Calls      int // synchronous ingest round trips
	Frames     int // pipelined ingest frames, sent a full window at a time
	Pushes     int // SSE freshness probes
	Updates    int // plane query updates
	NetUpdates int // network query updates
	Queries    int // index searches
	Mutations  int // index inserts (and as many removals)
	CodecIters int
}

var fullProbes = probeCounts{
	Batches: 1500, Calls: 2000, Frames: 4000, Pushes: 200,
	Updates: 20000, NetUpdates: 4000, Queries: 5000, Mutations: 1000, CodecIters: 100000,
}

// smokeProbes are the counts the unit tests run with.
var smokeProbes = probeCounts{
	Batches: 40, Calls: 60, Frames: 64, Pushes: 10,
	Updates: 600, NetUpdates: 200, Queries: 200, Mutations: 50, CodecIters: 500,
}

const (
	probeK       = 10 // k of the single-query core probes
	probeKNNSize = 16 // ⌊1.6·10⌋: the prefetch size such a query asks the index for
)

// nsPer returns elapsed nanoseconds per operation.
func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// usPercentile returns the p-th percentile (capped by the sample rule) of
// nanosecond samples, in microseconds.
func usPercentile(ns []float64, p float64) float64 {
	return pAt(ns, allowedPercentile(len(ns), p))
}

type engineProbeOut struct {
	batchP50US, batchP99US float64
	cpuNSPerUpdate         float64
	applyNSPerUpdate       float64
	allocsPerUpdate        float64
}

// engineProbe drives probe.Batches update batches through the quiesced
// engine from one goroutine and splits their cost: caller-observed batch
// latency, process CPU per update, the part of it spent inside the core
// processors (the registry's apply stage), and allocations.
func (s *system) engineProbe() (engineProbeOut, error) {
	var out engineProbeOut
	before, err := scrapeRegistry(s.reg)
	if err != nil {
		return out, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	base := time.Now()
	var never atomic.Bool
	log := s.reader(0, s.in.sp.Sessions, &never, func() int64 { return int64(time.Since(base)) }, nil, s.probe.Batches)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	after, err := scrapeRegistry(s.reg)
	if err != nil {
		return out, err
	}
	var lats []float64
	updates := 0
	for _, o := range log {
		lats = append(lats, float64(o.lat))
		updates += int(o.ok)
		if o.ok < o.n {
			return out, fmt.Errorf("engine probe: %d of %d updates failed in one batch", o.n-o.ok, o.n)
		}
	}
	out.batchP50US = usPercentile(lats, 50)
	out.batchP99US = usPercentile(lats, 99)
	out.cpuNSPerUpdate = nsPer(cpu1-cpu0, updates)
	out.applyNSPerUpdate = stageDelta(before, after)["apply"].SumUS * 1e3 / float64(max(updates, 1))
	out.allocsPerUpdate = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(updates, 1))
	return out, nil
}

// wireProbeOut is what the client/api/server probe measures.
type wireProbeOut struct {
	rttP50US, rttP99US float64 // synchronous Call round trip, unloaded
	loadedP50US        float64 // Send->ack inside a full-window burst
	sendNSPerFrame     float64
	framesPerS         float64
	coalesceFactor     float64
	decodeP50US        float64
	pushP50US          float64 // engine insert -> SSE client callback
	refused            int64
}

// wireProbe measures the wire layers of the quiesced serve workload over
// its own two connections: synchronous round trips, a pipelined burst and
// SSE freshness probes over loopback.
func (s *system) wireProbe() (wireProbeOut, error) {
	var out wireProbeOut
	in, sp := s.in, s.in.sp
	cur := make([]cursor, sp.Sessions)
	for i := range cur {
		cur[i].idx = s.last[i].Load()
	}
	const frameEntries = 4
	next := 0
	frame := func() api.IngestBatch {
		var b api.IngestBatch
		for e := 0; e < frameEntries; e++ {
			i := next
			next = (next + 1) % sp.Sessions
			j := cur[i].next(sp.TrajLen)
			s.last[i].Store(int32(j))
			p := in.planeAt(i, j)
			b.Updates = append(b.Updates, api.UpdateEntry{Session: uint64(s.sids[i]), X: p.X, Y: p.Y})
		}
		return b
	}
	good := func(ack api.IngestAck) bool { return ack.Code == api.CodeOK && ack.Applied == frameEntries }

	before, err := scrapeRegistry(s.reg)
	if err != nil {
		return out, err
	}

	// Synchronous round trips.
	var rtts []float64
	for c := 0; c < s.probe.Calls; c++ {
		b := frame()
		t0 := time.Now()
		ack, err := s.ing.Call(b)
		if err != nil {
			return out, fmt.Errorf("wire probe call: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0)))
		if !good(ack) {
			out.refused++
		}
	}
	out.rttP50US = usPercentile(rtts, 50)
	out.rttP99US = usPercentile(rtts, 99)

	// Pipelined bursts.
	mid, err := scrapeRegistry(s.reg)
	if err != nil {
		return out, err
	}
	// Each round sends one full window of frames into an empty pipe (so no
	// Send ever waits for a slot and its time is the client's own cost:
	// encode + frame + socket write), then waits for the round's acks.
	burst := time.Now()
	since := func() int64 { return int64(time.Since(burst)) }
	var loaded []float64
	acked := 0
	roundDone := make(chan struct{}, 1) // one token per completed round
	table := newAckTable(since, func(t0 int64, ack api.IngestAck, at int64) {
		if !good(ack) {
			out.refused++
		}
		loaded = append(loaded, float64(at-t0))
		if acked++; acked%sp.Window == 0 {
			roundDone <- struct{}{}
		}
	})
	s.onAck.Store(&table.onAck)
	defer s.onAck.Store(nil)
	var sendTotal int64
	for round := 0; round < s.probe.Frames/sp.Window; round++ {
		for f := 0; f < sp.Window; f++ {
			b := frame()
			t0 := since()
			seq, err := s.ing.Send(b)
			if err != nil {
				return out, fmt.Errorf("wire probe send: %w", err)
			}
			sendTotal += since() - t0
			table.onSend(seq, t0)
		}
		select {
		case <-roundDone:
		case <-time.After(requestTimeout):
			return out, fmt.Errorf("wire probe: pipelined round %d never fully acknowledged", round)
		}
	}
	elapsed := time.Since(burst)
	out.loadedP50US = usPercentile(loaded, 50) // every round has completed: no handler is running
	out.sendNSPerFrame = float64(sendTotal) / float64(s.probe.Frames)
	out.framesPerS = float64(s.probe.Frames) / elapsed.Seconds()
	after, err := scrapeRegistry(s.reg)
	if err != nil {
		return out, err
	}
	// The server exports its ingest pump counters on the same registry.
	frames := after.scalars["insq_ingest_frames_total"] - mid.scalars["insq_ingest_frames_total"]
	if batches := after.scalars["insq_ingest_batches_total"] - mid.scalars["insq_ingest_batches_total"]; batches > 0 {
		out.coalesceFactor = frames / batches
	}
	out.decodeP50US = stageDelta(before, after)["decode"].P50US

	// SSE freshness: insert straight into the engine (no ingest leg), wait
	// for the SSE client to be told.
	type arrival struct {
		id int
		at time.Time
	}
	arrivals := make(chan arrival, 1024) // events of one probe round; drained each round
	hook := func(added []int, at time.Time) {
		for _, id := range added {
			select {
			case arrivals <- arrival{id, at}:
			default: // an unread backlog means nobody is waiting for it
			}
		}
	}
	s.sseHook.Store(&hook)
	defer s.sseHook.Store(nil)
	var pushes []float64
	for p, target := 0, 0; p < s.probe.Pushes; p++ {
		var m index.Mutation
		ok := false
		for try := 0; try < len(in.targets) && !ok; try++ {
			m, ok = s.probeInsert(in.targets[target%len(in.targets)])
			target++
		}
		if !ok {
			continue
		}
		t0 := time.Now()
		ids, err := s.eng.ApplyMutations(context.Background(), []index.Mutation{m})
		if err != nil {
			return out, fmt.Errorf("wire probe insert: %w", err)
		}
		s.mdl.insert(ids[0], m.P)
		timeout := time.After(2 * time.Second)
	wait:
		for {
			select {
			case a := <-arrivals:
				if a.id == ids[0] && !a.at.Before(t0) {
					pushes = append(pushes, float64(a.at.Sub(t0)))
					break wait
				}
			case <-timeout:
				return out, fmt.Errorf("wire probe: SSE push for object %d never arrived", ids[0])
			}
		}
		if _, err := s.eng.ApplyMutations(context.Background(), []index.Mutation{{ID: ids[0]}}); err != nil {
			return out, fmt.Errorf("wire probe remove: %w", err)
		}
		s.mdl.unqueue(ids[0])
		s.mdl.remove(ids[0])
	}
	out.pushP50US = usPercentile(pushes, 50)
	return out, nil
}

// codecProbeOut is the api layer's unit costs for one update frame.
type codecProbeOut struct {
	encodeNS, decodeNS, decodeAckNS, bytesPerUpdate float64
}

// codecProbe times the ingest codec on a frame built from the workload's
// own first positions.
func codecProbe(in *inputs, iters int) codecProbeOut {
	const frameEntries = 4
	var b api.IngestBatch
	b.Seq = 1 << 20
	for i := 0; i < frameEntries; i++ {
		p := in.planeAt(i, 0)
		b.Updates = append(b.Updates, api.UpdateEntry{Session: uint64(i + 1), X: p.X, Y: p.Y})
	}
	var out codecProbeOut
	var buf, payload []byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		payload = api.AppendBatch(payload[:0], b)
		buf = api.AppendFrame(buf[:0], payload)
	}
	out.encodeNS = nsPer(time.Since(t0), iters)
	out.bytesPerUpdate = float64(len(buf)) / frameEntries
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := api.DecodeBatch(payload); err != nil {
			panic("codec probe: round trip failed: " + err.Error())
		}
	}
	out.decodeNS = nsPer(time.Since(t0), iters)
	ack := api.AppendAck(nil, api.IngestAck{Seq: 1 << 20, Code: api.CodeOK, Applied: frameEntries})
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := api.DecodeAck(ack); err != nil {
			panic("codec probe: ack round trip failed: " + err.Error())
		}
	}
	out.decodeAckNS = nsPer(time.Since(t0), iters)
	return out
}

// planeProbeOut is the plane index and plane query processor's unit costs.
type planeProbeOut struct {
	knnNS, visitsPerKNN, insNS, insertUS, removeUS float64
	validateNS, rerankNS, recomputeNS              float64
}

// planeProbe builds a private VoR-tree over pts and times its public read
// and write paths, then a single INS query walking a fast trajectory on
// it, each update timed and classed by the outcome counters it moved.
func planeProbe(pts []geom.Point, seed int64, n probeCounts) (planeProbeOut, error) {
	var out planeProbeOut
	ix, _, err := vortree.Build(bounds, fanout, pts)
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sc vortree.SearchScratch
	queries := make([]geom.Point, n.Queries)
	for i := range queries {
		queries[i] = geom.Pt(rng.Float64()*space, rng.Float64()*space)
	}
	results := make([][]int, n.Queries)
	visits := 0
	t0 := time.Now()
	for i, q := range queries {
		var v int
		results[i], v = ix.AppendKNN(q, probeKNNSize, results[i], &sc)
		visits += v
	}
	out.knnNS = nsPer(time.Since(t0), n.Queries)
	out.visitsPerKNN = float64(visits) / float64(n.Queries)
	var ins []int
	t0 = time.Now()
	for _, r := range results {
		if ins, err = ix.AppendINS(r, ins[:0], &sc); err != nil {
			return out, err
		}
	}
	out.insNS = nsPer(time.Since(t0), n.Queries)

	// The query probe runs before the mutations so it sees the dataset as
	// the workload does.
	q, err := core.NewPlaneQuery(ix, probeK, rho)
	if err != nil {
		return out, err
	}
	var sum [3]time.Duration
	var cnt [3]int
	for _, p := range trajectory.RandomWaypoint(bounds, n.Updates, fastStep, seed+1) {
		m := *q.Metrics()
		t0 := time.Now()
		if _, err := q.Update(p); err != nil {
			return out, err
		}
		d := time.Since(t0)
		class := 0 // validated
		switch n := q.Metrics(); {
		case n.Recomputations > m.Recomputations:
			class = 2
		case n.Invalidations > m.Invalidations:
			class = 1 // repaired locally by re-ranking R
		}
		sum[class] += d
		cnt[class]++
	}
	out.validateNS, out.rerankNS, out.recomputeNS = nsPer(sum[0], cnt[0]), nsPer(sum[1], cnt[1]), nsPer(sum[2], cnt[2])

	// Writes go through Branch, as index.Store.Apply publishes them: the
	// cost includes the copy-on-write of the touched path.
	ids := make([]int, 0, n.Mutations)
	t0 = time.Now()
	for i := 0; i < n.Mutations; i++ {
		b := ix.Branch()
		id, err := b.Insert(geom.Pt(rng.Float64()*space, rng.Float64()*space))
		if err != nil {
			return out, err
		}
		ids, ix = append(ids, id), b
	}
	out.insertUS = nsPer(time.Since(t0), n.Mutations) / 1e3
	t0 = time.Now()
	for _, id := range ids {
		b := ix.Branch()
		if err := b.Remove(id); err != nil {
			return out, err
		}
		ix = b
	}
	out.removeUS = nsPer(time.Since(t0), n.Mutations) / 1e3
	return out, nil
}

// netProbeOut is the network index and network query processor's unit costs.
type netProbeOut struct {
	knnNS, subnetworkNS, insertUS float64
	validateNS, recomputeNS       float64
}

// netProbe is planeProbe for the road network: a private diagram over
// (g, sites), its search, subnetwork extraction and site insertion, and a
// single network INS query on a random walk.
func netProbe(g *roadnet.Graph, sites []int, seed int64, n probeCounts) (netProbeOut, error) {
	var out netProbeOut
	d, err := netvor.Build(g, sites)
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sc netvor.SearchScratch
	nq := n.Queries / 2
	results := make([][]int, nq)
	t0 := time.Now()
	for i := range results {
		results[i], _, _ = d.AppendKNN(roadnet.VertexPosition(rng.Intn(g.NumVertices())), probeKNNSize, results[i], nil, &sc)
	}
	out.knnNS = nsPer(time.Since(t0), nq)
	var sub *netvor.Subnetwork
	var guard []int
	t0 = time.Now()
	for _, r := range results {
		guard = append(guard[:0], r...)
		if guard, err = d.AppendINS(r, guard, &sc); err != nil {
			return out, err
		}
		sub = d.SubnetworkInto(guard, sub, &sc)
	}
	out.subnetworkNS = nsPer(time.Since(t0), nq)

	q, err := core.NewNetworkQuery(d, probeK, rho)
	if err != nil {
		return out, err
	}
	route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), fastStep*float64(n.NetUpdates), seed+1)
	if err != nil {
		return out, err
	}
	var sum [2]time.Duration
	var cnt [2]int
	for j := 0; j < n.NetUpdates; j++ {
		m := *q.Metrics()
		t0 := time.Now()
		if _, err := q.Update(route.PositionAt(fastStep * float64(j))); err != nil {
			return out, err
		}
		dur := time.Since(t0)
		class := 0
		if q.Metrics().Recomputations > m.Recomputations {
			class = 1
		}
		sum[class] += dur
		cnt[class]++
	}
	out.validateNS, out.recomputeNS = nsPer(sum[0], cnt[0]), nsPer(sum[1], cnt[1])

	inserted := 0
	t0 = time.Now()
	for inserted < n.Mutations/2 {
		v := rng.Intn(g.NumVertices())
		if d.IsSite(v) {
			continue
		}
		b := d.Branch()
		if err := b.Insert(v); err != nil {
			return out, err
		}
		d = b
		inserted++
	}
	out.insertUS = nsPer(time.Since(t0), inserted) / 1e3
	return out, nil
}

// spaceProbe runs the index and query probe of the space the workload
// lives in; the other space's numbers stay zero.
func spaceProbe(in *inputs, n probeCounts) (planeProbeOut, netProbeOut, error) {
	if !in.sp.Network {
		pp, err := planeProbe(in.objects, in.sub(7, 0), n)
		if err != nil {
			return pp, netProbeOut{}, fmt.Errorf("plane probe: %w", err)
		}
		return pp, netProbeOut{}, nil
	}
	g, err := in.graph()
	if err != nil {
		return planeProbeOut{}, netProbeOut{}, err
	}
	np, err := netProbe(g, in.sites, in.sub(8, 0), n)
	if err != nil {
		return planeProbeOut{}, np, fmt.Errorf("network probe: %w", err)
	}
	return planeProbeOut{}, np, nil
}
