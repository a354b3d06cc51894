package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stream"
	"repro/internal/workload"
)

// StreamBenchResult is the continuous-query push benchmark record written
// to BENCH_stream.json by `bench -exp STREAM`. It tracks the numbers the
// stream subsystem is accountable for across PRs: insert-to-push latency
// (how fast a data update reaches a subscriber as a kNN delta), and the
// coalesce/drop behavior that keeps slow consumers from growing memory.
type StreamBenchResult struct {
	Shards      int `json:"shards"`
	Sessions    int `json:"sessions"`
	Objects     int `json:"objects"`
	K           int `json:"k"`
	DataUpdates int `json:"data_updates"`

	PushEvents uint64  `json:"push_events"`
	PushP50US  float64 `json:"push_p50_us"`
	PushP95US  float64 `json:"push_p95_us"`
	PushP99US  float64 `json:"push_p99_us"`
	PushMeanUS float64 `json:"push_mean_us"`

	// Published counts events the engine handed to the broker. Delivered,
	// Coalesced and Dropped are the HEALTHY subscriber's counters only: the
	// deliberately stalled probe below is accounted separately, so these
	// reflect what a draining consumer actually experiences (Dropped should
	// be 0 on a healthy path).
	Published   uint64  `json:"published"`
	Delivered   uint64  `json:"delivered"`
	Coalesced   uint64  `json:"coalesced"`
	Dropped     uint64  `json:"dropped"`
	CoalescePct float64 `json:"coalesce_pct"`
	// The stall probe: a subscriber that never drains and must be bounded
	// by its queue capacity, with the overflow absorbed by coalesces and
	// drops. Its drops are expected and say nothing about healthy-path
	// delivery.
	StallDropped   uint64 `json:"stall_probe_dropped"`
	StallCoalesced uint64 `json:"stall_probe_coalesced"`
	SlowPending    int    `json:"slow_pending"`
	SlowCapacity   int    `json:"slow_capacity"`
}

// String renders the result as a short table for the harness output.
func (r StreamBenchResult) String() string {
	return fmt.Sprintf(
		"STREAM shards=%d sessions=%d objects=%d churn=%d\n"+
			"       push events=%d p50=%.1fus p95=%.1fus p99=%.1fus mean=%.1fus\n"+
			"       published=%d delivered=%d coalesced=%d (%.2f%%) dropped=%d\n"+
			"       stall probe: dropped=%d coalesced=%d pending=%d/%d",
		r.Shards, r.Sessions, r.Objects, r.DataUpdates,
		r.PushEvents, r.PushP50US, r.PushP95US, r.PushP99US, r.PushMeanUS,
		r.Published, r.Delivered, r.Coalesced, r.CoalescePct, r.Dropped,
		r.StallDropped, r.StallCoalesced, r.SlowPending, r.SlowCapacity)
}

// StreamBench drives the push subsystem: sessions spread over the data
// space, all watched by one draining subscriber (whose deliveries are
// timed against the inserts that caused them) and one deliberately
// stalled subscriber with a tiny queue (which must coalesce/drop instead
// of growing). Object churn then races the fan-out. Scale divides the
// session count and churn volume.
func StreamBench(cfg Config) (StreamBenchResult, error) {
	const (
		objects = 10000
		k       = 5
		rho     = 1.6
		shards  = 8
		slowCap = 8
	)
	sessions := 1000
	churn := 400
	if cfg.Scale > 1 {
		sessions /= cfg.Scale
		churn /= cfg.Scale
	}

	e, err := engine.New(engine.Config{Shards: shards, Bounds: Bounds, Objects: workload.Uniform(objects, Bounds, cfg.seed(42))})
	if err != nil {
		return StreamBenchResult{}, err
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(cfg.seed(7)))
	pos := make([]geom.Point, sessions)
	batch := make([]engine.LocationUpdate, sessions)
	for i := range batch {
		sid, err := e.CreateSession(k, rho)
		if err != nil {
			return StreamBenchResult{}, err
		}
		pos[i] = geom.Pt(rng.Float64()*Bounds.Max.X, rng.Float64()*Bounds.Max.Y)
		batch[i] = engine.LocationUpdate{Session: sid, Pos: pos[i]}
	}
	if _, err := e.UpdateBatchCtx(context.Background(), batch); err != nil {
		return StreamBenchResult{}, err
	}

	// The measured subscriber drains promptly and matches Added object ids
	// back to insert times.
	fast := e.Stream().Subscribe(0)
	// The stalled subscriber never drains: its queue must stay at slowCap
	// while the overflow counters absorb the rest.
	slow := e.Stream().Subscribe(slowCap)
	defer fast.Close()
	defer slow.Close()

	var (
		mu      sync.Mutex
		sent    = make(map[int]time.Time)
		samples []time.Duration
		events  uint64
	)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for {
			select {
			case <-fast.Done():
				return
			case <-fast.Wake():
				for ev, ok := fast.Next(); ok; ev, ok = fast.Next() {
					if ev.Cause != stream.CauseData {
						continue
					}
					now := time.Now()
					mu.Lock()
					events++
					for _, id := range ev.Added {
						if t0, ok := sent[id]; ok {
							samples = append(samples, now.Sub(t0))
							delete(sent, id)
						}
					}
					mu.Unlock()
				}
			}
		}
	}()

	// Churn: inserts next to random sessions (guaranteed to enter a
	// watched kNN) alternating with removals that keep the object count
	// stable. Mutations are lightly paced so the record measures
	// insert-to-push latency rather than the queueing delay of a saturated
	// copy-on-write publisher (the ENGINE record covers mutation
	// throughput).
	var inserted []int
	for i := 0; i < churn; i++ {
		time.Sleep(time.Millisecond)
		if len(inserted) > 32 {
			id := inserted[0]
			inserted = inserted[1:]
			if _, err := mutate(e, index.Mutation{ID: id}); err != nil {
				return StreamBenchResult{}, err
			}
			continue
		}
		at := pos[rng.Intn(sessions)]
		p := geom.Pt(at.X+rng.Float64(), at.Y+rng.Float64())
		if !Bounds.Contains(p) {
			p = geom.Pt(Bounds.Max.X/2, Bounds.Max.Y/2)
		}
		t0 := time.Now()
		id, err := mutate(e, index.Mutation{Insert: true, P: p})
		if err != nil {
			return StreamBenchResult{}, err
		}
		mu.Lock()
		sent[id] = t0
		mu.Unlock()
		inserted = append(inserted, id)
	}

	// Let the tail of the fan-out land, then detach the consumer.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		outstanding := len(sent)
		mu.Unlock()
		if outstanding == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	slowPending := slow.Pending()
	fast.Close()
	<-consumed

	st, err := e.Stats()
	if err != nil {
		return StreamBenchResult{}, err
	}
	var hist pushHist
	for _, d := range samples {
		hist.add(d)
	}
	res := StreamBenchResult{
		Shards:      shards,
		Sessions:    sessions,
		Objects:     objects,
		K:           k,
		DataUpdates: int(st.Epoch),
		PushEvents:  events,
		PushP50US:   hist.quantileUS(0.50),
		PushP95US:   hist.quantileUS(0.95),
		PushP99US:   hist.quantileUS(0.99),
		PushMeanUS:  hist.meanUS(),
		Published:   st.Stream.Published,
		// Healthy-path counters come from the draining subscriber; the
		// stall probe's expected drops are reported under stall_probe_*.
		Delivered:      fast.Delivered(),
		Coalesced:      fast.Coalesced(),
		Dropped:        fast.Dropped(),
		StallDropped:   slow.Dropped(),
		StallCoalesced: slow.Coalesced(),
		SlowPending:    slowPending,
		SlowCapacity:   slowCap,
	}
	if res.Published > 0 {
		res.CoalescePct = 100 * float64(res.Coalesced) / float64(res.Published)
	}
	return res, nil
}

// pushHist is an exact-sample latency summary (the push sample count is
// small enough to keep them all, unlike the serving-path histogram).
type pushHist struct {
	d []time.Duration
}

func (h *pushHist) add(d time.Duration) { h.d = append(h.d, d) }

func (h *pushHist) quantileUS(q float64) float64 {
	if len(h.d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), h.d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx].Nanoseconds()) / 1e3
}

func (h *pushHist) meanUS() float64 {
	if len(h.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range h.d {
		sum += d
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(len(h.d))
}
