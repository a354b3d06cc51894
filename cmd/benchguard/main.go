// Command benchguard is the CI bench regression gate: it compares a
// freshly measured serving record against the committed baseline and
// exits non-zero when the serving path regressed beyond the per-record
// thresholds. Seven record kinds are gated, matching the serving
// benchmarks bench emits:
//
//	engine  (BENCH_engine.json):  updates_per_sec drop > -max-rate-drop,
//	                              allocs_per_update growth > -max-alloc-growth
//	network (BENCH_network.json): same thresholds as engine, applied to the
//	                              road-network serving path; optionally also
//	                              relaxations_per_update growth >
//	                              -max-relax-growth, p95_update_us growth >
//	                              -max-p95-growth and an absolute
//	                              allocs_per_update cap -max-allocs
//	                              (each 0 = off)
//	stream  (BENCH_stream.json):  push_p95_us growth > -max-push-growth,
//	                              healthy-path dropped > -max-dropped
//	wal     (BENCH_wal.json):     self-contained record: fresh
//	                              updates_per_sec vs its own
//	                              base_updates_per_sec overhead >
//	                              -max-wal-overhead, recovery_ms >
//	                              -max-recovery-ms (absolute)
//	obs     (BENCH_obs.json):     self-contained like wal: instrumented
//	                              vs noop serving rate overhead >
//	                              -max-obs-overhead
//	chaos   (BENCH_chaos.json):   self-contained invariants of the fresh
//	                              record only: recovered must be true,
//	                              degraded reads must be error-free, heal
//	                              must beat -max-recover-ms, admission
//	                              control must actually shed, and some
//	                              writes must succeed post-heal
//	serve   (BENCH_serve.json):   self-contained like wal: the binary
//	                              streaming ingest path must beat the
//	                              JSON-per-request path by at least
//	                              -min-serve-speedup on the same process,
//	                              and neither path may shed on the
//	                              healthy workload
//
//	go run ./cmd/bench -exp ENGINE -scale 4 -benchout BENCH_engine.fresh.json
//	go run ./cmd/benchguard -kind engine -baseline BENCH_engine.json -fresh BENCH_engine.fresh.json
//
// Throughput and latency are machine-sensitive, which is why those
// thresholds are deliberately loose; the allocation rate and the drop
// counter are deterministic for a given build and guard the
// allocation-free hot path and the healthy delivery path exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

// record is the union of the per-kind fields the guard cares about; each
// kind reads its own subset.
type record struct {
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	AllocsPerUpdate float64 `json:"allocs_per_update"`
	PushP95US       float64 `json:"push_p95_us"`
	Dropped         uint64  `json:"dropped"`
	// network records also carry the per-update search work (Dijkstra edge
	// relaxations, deterministic for a build) and the update tail latency.
	RelaxationsPerUpdate float64 `json:"relaxations_per_update"`
	P95UpdateUS          float64 `json:"p95_update_us"`
	// wal records carry their own in-process baseline rate, so the
	// overhead gate is machine-consistent by construction.
	BaseUpdatesPerSec float64 `json:"base_updates_per_sec"`
	RecoveryMS        float64 `json:"recovery_ms"`
	// chaos records carry the fault-injection invariants; like wal they
	// are self-contained, gated on the fresh record alone.
	Rounds                   int     `json:"rounds"`
	TimeToRecoverMaxMS       float64 `json:"time_to_recover_max_ms"`
	ReadErrorsDuringDegraded int     `json:"read_errors_during_degraded"`
	ShedRate                 float64 `json:"shed_rate"`
	WritesOK                 int     `json:"writes_ok"`
	Recovered                bool    `json:"recovered"`
	// serve records are self-contained A/Bs: both rates and the shed
	// counters come from the same process, so the gate reads the fresh
	// record alone.
	JSONUpdatesPerSec   float64 `json:"json_updates_per_sec"`
	BinaryUpdatesPerSec float64 `json:"binary_updates_per_sec"`
	Speedup             float64 `json:"speedup"`
	ShedJSON            uint64  `json:"shed_json"`
	ShedBinary          uint64  `json:"shed_binary"`
}

func load(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// thresholds collects every gate knob; each kind applies its subset. The
// zero value of the optional gates (relax, p95, absolute allocs) means
// "off", so existing invocations keep their behavior.
type thresholds struct {
	maxRateDrop     float64 // engine, network
	maxAllocGrowth  float64 // engine, network
	maxRelaxGrowth  float64 // engine, network: relaxations_per_update factor, 0 = off
	maxP95Growth    float64 // engine, network: p95_update_us factor, 0 = off
	maxAllocs       float64 // engine, network: absolute allocs_per_update cap, 0 = off
	maxPushGrowth   float64 // stream
	maxDropped      uint64  // stream
	maxWALOverhead  float64 // wal
	maxRecoveryMS   float64 // wal
	maxObsOverhead  float64 // obs
	maxRecoverMS    float64 // chaos: worst heal round trip, absolute
	minServeSpeedup float64 // serve: binary-over-JSON throughput floor
}

// check returns the regression verdicts for one record kind; factored out
// of main for tests.
func check(kind string, base, fresh record, th thresholds) []string {
	var fails []string
	switch kind {
	case "engine", "network":
		if base.UpdatesPerSec > 0 {
			drop := 1 - fresh.UpdatesPerSec/base.UpdatesPerSec
			if drop > th.maxRateDrop {
				fails = append(fails, fmt.Sprintf(
					"updates_per_sec dropped %.1f%% (%.0f -> %.0f; limit %.0f%%)",
					100*drop, base.UpdatesPerSec, fresh.UpdatesPerSec, 100*th.maxRateDrop))
			}
		}
		if base.AllocsPerUpdate > 0 {
			growth := fresh.AllocsPerUpdate / base.AllocsPerUpdate
			if growth > th.maxAllocGrowth {
				fails = append(fails, fmt.Sprintf(
					"allocs_per_update grew %.2fx (%.1f -> %.1f; limit %.1fx)",
					growth, base.AllocsPerUpdate, fresh.AllocsPerUpdate, th.maxAllocGrowth))
			}
		}
		if th.maxAllocs > 0 && fresh.AllocsPerUpdate > th.maxAllocs {
			fails = append(fails, fmt.Sprintf(
				"allocs_per_update = %.1f (absolute limit %.1f)",
				fresh.AllocsPerUpdate, th.maxAllocs))
		}
		if th.maxRelaxGrowth > 0 && base.RelaxationsPerUpdate > 0 {
			growth := fresh.RelaxationsPerUpdate / base.RelaxationsPerUpdate
			if growth > th.maxRelaxGrowth {
				fails = append(fails, fmt.Sprintf(
					"relaxations_per_update grew %.2fx (%.1f -> %.1f; limit %.1fx): the network search regressed",
					growth, base.RelaxationsPerUpdate, fresh.RelaxationsPerUpdate, th.maxRelaxGrowth))
			}
		}
		if th.maxP95Growth > 0 && base.P95UpdateUS > 0 {
			growth := fresh.P95UpdateUS / base.P95UpdateUS
			if growth > th.maxP95Growth {
				fails = append(fails, fmt.Sprintf(
					"p95_update_us grew %.2fx (%.1f -> %.1f; limit %.1fx)",
					growth, base.P95UpdateUS, fresh.P95UpdateUS, th.maxP95Growth))
			}
		}
	case "wal":
		// The wal record is self-contained: both rates come from the same
		// process, so the gate reads the fresh record only (the committed
		// baseline just anchors the history).
		if fresh.BaseUpdatesPerSec > 0 {
			overhead := 1 - fresh.UpdatesPerSec/fresh.BaseUpdatesPerSec
			if overhead > th.maxWALOverhead {
				fails = append(fails, fmt.Sprintf(
					"WAL serving overhead %.1f%% (%.0f/s with log vs %.0f/s without; limit %.0f%%)",
					100*overhead, fresh.UpdatesPerSec, fresh.BaseUpdatesPerSec, 100*th.maxWALOverhead))
			}
		}
		if fresh.RecoveryMS > th.maxRecoveryMS {
			fails = append(fails, fmt.Sprintf(
				"crash recovery took %.1fms (limit %.0fms)", fresh.RecoveryMS, th.maxRecoveryMS))
		}
	case "obs":
		// Self-contained like wal: metrics-on vs noop rate measured by the
		// same process, gating the instrumentation overhead.
		if fresh.BaseUpdatesPerSec > 0 {
			overhead := 1 - fresh.UpdatesPerSec/fresh.BaseUpdatesPerSec
			if overhead > th.maxObsOverhead {
				fails = append(fails, fmt.Sprintf(
					"observability overhead %.1f%% (%.0f/s instrumented vs %.0f/s noop; limit %.0f%%)",
					100*overhead, fresh.UpdatesPerSec, fresh.BaseUpdatesPerSec, 100*th.maxObsOverhead))
			}
		}
	case "chaos":
		// Self-contained: every gate is an invariant of the fresh record.
		// A failed invariant means the degradation ladder itself broke,
		// not that a number drifted.
		if fresh.Rounds < 1 {
			fails = append(fails, fmt.Sprintf("rounds = %d: no degrade/heal round trips ran", fresh.Rounds))
		}
		if !fresh.Recovered {
			fails = append(fails, "recovered = false: post-crash store does not match the pre-crash probe")
		}
		if fresh.ReadErrorsDuringDegraded > 0 {
			fails = append(fails, fmt.Sprintf(
				"read_errors_during_degraded = %d: reads must keep serving while the WAL is degraded",
				fresh.ReadErrorsDuringDegraded))
		}
		if fresh.TimeToRecoverMaxMS > th.maxRecoverMS {
			fails = append(fails, fmt.Sprintf(
				"time_to_recover_max_ms = %.1f (limit %.0f): the heal probe is too slow",
				fresh.TimeToRecoverMaxMS, th.maxRecoverMS))
		}
		if fresh.ShedRate <= 0 {
			fails = append(fails, "shed_rate = 0: admission control never shed under overload")
		}
		if fresh.WritesOK == 0 {
			fails = append(fails, "writes_ok = 0: no write ever succeeded after healing")
		}
	case "serve":
		// Self-contained: both paths ran in one process against one
		// engine, so the speedup is machine-consistent and the gate reads
		// the fresh record alone. A speedup below the floor means the
		// binary protocol stopped paying for itself; a healthy-path shed
		// means admission control fired on a workload that should sail.
		if fresh.JSONUpdatesPerSec <= 0 || fresh.BinaryUpdatesPerSec <= 0 {
			fails = append(fails, "serve record is empty: one of the A/B phases measured zero throughput")
		}
		if fresh.Speedup < th.minServeSpeedup {
			fails = append(fails, fmt.Sprintf(
				"binary ingest speedup %.2fx over JSON (%.0f/s vs %.0f/s; floor %.1fx)",
				fresh.Speedup, fresh.BinaryUpdatesPerSec, fresh.JSONUpdatesPerSec, th.minServeSpeedup))
		}
		if fresh.ShedJSON > 0 || fresh.ShedBinary > 0 {
			fails = append(fails, fmt.Sprintf(
				"healthy-path sheds: json=%d binary=%d (must be 0)", fresh.ShedJSON, fresh.ShedBinary))
		}
	case "stream":
		if base.PushP95US > 0 {
			growth := fresh.PushP95US / base.PushP95US
			if growth > th.maxPushGrowth {
				fails = append(fails, fmt.Sprintf(
					"push_p95_us grew %.2fx (%.1f -> %.1f; limit %.1fx)",
					growth, base.PushP95US, fresh.PushP95US, th.maxPushGrowth))
			}
		}
		if fresh.Dropped > th.maxDropped {
			fails = append(fails, fmt.Sprintf(
				"healthy-path dropped = %d (limit %d): a draining subscriber lost events",
				fresh.Dropped, th.maxDropped))
		}
	default:
		fails = append(fails, fmt.Sprintf("unknown record kind %q (engine, network, stream, wal, obs, chaos, serve)", kind))
	}
	return fails
}

// summary renders the passing verdict for one kind.
func summary(kind string, base, fresh record) string {
	if kind == "wal" {
		return fmt.Sprintf("ok: WAL overhead %.1f%% (%.0f/s vs %.0f/s), recovery %.1fms",
			100*(1-fresh.UpdatesPerSec/maxFloat(fresh.BaseUpdatesPerSec, 1)),
			fresh.UpdatesPerSec, fresh.BaseUpdatesPerSec, fresh.RecoveryMS)
	}
	if kind == "obs" {
		return fmt.Sprintf("ok: observability overhead %.1f%% (%.0f/s vs %.0f/s)",
			100*(1-fresh.UpdatesPerSec/maxFloat(fresh.BaseUpdatesPerSec, 1)),
			fresh.UpdatesPerSec, fresh.BaseUpdatesPerSec)
	}
	if kind == "stream" {
		return fmt.Sprintf("ok: push p95 %.1fus (baseline %.1fus), dropped %d",
			fresh.PushP95US, base.PushP95US, fresh.Dropped)
	}
	if kind == "chaos" {
		return fmt.Sprintf("ok: %d degrade/heal rounds, recover <= %.1fms, shed rate %.2f, recovered=%v",
			fresh.Rounds, fresh.TimeToRecoverMaxMS, fresh.ShedRate, fresh.Recovered)
	}
	if kind == "serve" {
		return fmt.Sprintf("ok: binary ingest %.2fx over JSON (%.0f/s vs %.0f/s), sheds json=%d binary=%d",
			fresh.Speedup, fresh.BinaryUpdatesPerSec, fresh.JSONUpdatesPerSec, fresh.ShedJSON, fresh.ShedBinary)
	}
	return fmt.Sprintf("ok: rate %.0f/s (baseline %.0f/s), allocs/update %.1f (baseline %.1f)",
		fresh.UpdatesPerSec, base.UpdatesPerSec, fresh.AllocsPerUpdate, base.AllocsPerUpdate)
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		kind            = flag.String("kind", "engine", "record kind: engine, network, stream, wal, obs, chaos or serve")
		baseline        = flag.String("baseline", "BENCH_engine.json", "committed baseline record")
		fresh           = flag.String("fresh", "BENCH_engine.fresh.json", "freshly measured record")
		maxRateDrop     = flag.Float64("max-rate-drop", 0.25, "engine/network: fail when updates_per_sec drops by more than this fraction")
		maxAllocGrowth  = flag.Float64("max-alloc-growth", 2.0, "engine/network: fail when allocs_per_update grows by more than this factor")
		maxRelaxGrowth  = flag.Float64("max-relax-growth", 0, "engine/network: fail when relaxations_per_update grows by more than this factor (0 = off)")
		maxP95Growth    = flag.Float64("max-p95-growth", 0, "engine/network: fail when p95_update_us grows by more than this factor (0 = off)")
		maxAllocs       = flag.Float64("max-allocs", 0, "engine/network: fail when the fresh allocs_per_update exceeds this absolute cap (0 = off)")
		maxPushGrowth   = flag.Float64("max-push-growth", 4.0, "stream: fail when push_p95_us grows by more than this factor")
		maxDropped      = flag.Uint64("max-dropped", 0, "stream: fail when the healthy subscriber's dropped counter exceeds this")
		maxWALOverhead  = flag.Float64("max-wal-overhead", 0.10, "wal: fail when the fresh record's updates_per_sec falls more than this fraction below its own base_updates_per_sec")
		maxRecoveryMS   = flag.Float64("max-recovery-ms", 2000, "wal: fail when the fresh record's crash recovery exceeds this many milliseconds")
		maxObsOverhead  = flag.Float64("max-obs-overhead", 0.03, "obs: fail when the fresh record's updates_per_sec falls more than this fraction below its own base_updates_per_sec")
		maxRecoverMS    = flag.Float64("max-recover-ms", 2000, "chaos: fail when the fresh record's worst disarm-to-write-success round trip exceeds this many milliseconds")
		minServeSpeedup = flag.Float64("min-serve-speedup", 3.0, "serve: fail when the binary streaming ingest path beats the JSON-per-request path by less than this factor")
	)
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := load(*fresh)
	if err != nil {
		log.Fatal(err)
	}
	fails := check(*kind, base, cur, thresholds{
		maxRateDrop:     *maxRateDrop,
		maxAllocGrowth:  *maxAllocGrowth,
		maxRelaxGrowth:  *maxRelaxGrowth,
		maxP95Growth:    *maxP95Growth,
		maxAllocs:       *maxAllocs,
		maxPushGrowth:   *maxPushGrowth,
		maxDropped:      *maxDropped,
		maxWALOverhead:  *maxWALOverhead,
		maxRecoveryMS:   *maxRecoveryMS,
		maxObsOverhead:  *maxObsOverhead,
		maxRecoverMS:    *maxRecoverMS,
		minServeSpeedup: *minServeSpeedup,
	})
	for _, f := range fails {
		log.Printf("FAIL [%s]: %s", *kind, f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	log.Print(summary(*kind, base, cur))
}
