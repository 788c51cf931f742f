// Package obs is the observability substrate of the D2X debug service:
// low-overhead, allocation-conscious counters, latency histograms, gauges
// and a structured event trace, threaded through every layer of the debug
// stack (D2X-R commands, the shared-tables session service, rtv-handler
// guards, and debugger dispatch).
//
// The paper's premise (§3.2, Table 2) is that every D2X command is a
// cheap `call` into the paused inferior. This package is how the service
// *proves* that premise keeps holding as the system grows: per-command
// latency distributions, decode/cache-hit counters and guard-violation
// telemetry are measured in production and exported as one JSON snapshot
// (`obs.Snapshot()`), which perfbench's traced runs (`--trace 1`) read
// for their per-layer figures. Regressions are gated elsewhere, by the
// paired timing gates in the repo root's gates_test.go.
//
// Design constraints, in order:
//
//  1. No lock contention and no allocation on hot paths. Counters are
//     single atomic adds; histograms are fixed log2 buckets of atomic
//     counters; the event ring copies Event values into fixed slots
//     under per-slot CAS spinlocks, so tracing never touches the heap.
//     The only shared structure with any coordination is sync.Map, used
//     for metric registration, which is read-mostly after startup.
//  2. Metric handles are cheap to cache. Instrumented packages resolve
//     their handles once (at construction or init) and then touch only
//     atomics; Reset zeroes values in place so cached handles survive.
//  3. Everything is optional. SetEnabled(false) turns the clock reads
//     and event capture off. TestObsOverheadPaired in the repo root
//     measures what they cost `xbt`: median on/off ratios of 1.21 to
//     1.27 on a shared 2-vCPU VM, over the 5% budget that sampled spans
//     are to restore (ROADMAP item 3).
//
// The package deliberately has no dependency on any other repo package,
// so every layer — including the stock debugger, which must stay
// D2X-free — may import it.
package obs

import (
	"sync/atomic"
	"time"
)

// enabled gates clock reads and event capture. Counters stay live even
// when disabled (an atomic add costs less than the branch would save).
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns timing and event capture on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether timing and event capture are on.
//
//d2x:noalloc
func Enabled() bool { return enabled.Load() }

// Now returns the current time when observation is enabled, and the zero
// time otherwise. Pair with Histogram.Since: a zero start records
// nothing, so instrumentation sites need no branches of their own.
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// base anchors NowNanos: process-start wall time with its monotonic
// reading. time.Since(base) is a single monotonic clock read, roughly
// half the cost of time.Now (which reads wall and monotonic clocks) —
// the difference that matters on command paths timed twice per call.
var (
	base     = time.Now()
	baseWall = base.UnixNano()
)

// NowNanos returns a monotonic timestamp in nanoseconds since process
// start when observation is enabled, and 0 otherwise. This is the hot
// path clock: pair with Histogram.SinceNS, which records nothing for a
// zero start. Use Now/Since on cold paths that want wall-clock times.
//
//d2x:noalloc
func NowNanos() int64 {
	if !enabled.Load() {
		return 0
	}
	return int64(time.Since(base))
}

// WallNanos converts a NowNanos timestamp to Unix nanoseconds, letting
// event emitters derive a wall-clock stamp without a second clock read.
//
//d2x:noalloc
func WallNanos(ns int64) int64 { return baseWall + ns }

// Default is the process-wide registry. The debug service is one process
// serving many sessions and builds, so its metrics aggregate naturally;
// tests needing isolation take deltas or call Reset.
var Default = NewRegistry(DefaultRingSize)

// GetCounter returns (registering on first use) a named counter in the
// default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetShardedCounter returns (registering on first use) a named sharded
// counter in the default registry.
func GetShardedCounter(name string) *ShardedCounter { return Default.ShardedCounter(name) }

// GetGauge returns (registering on first use) a named gauge in the
// default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram returns (registering on first use) a named latency
// histogram in the default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// Emit records one trace event in the default registry's ring. The event
// is dropped (cheaply: one atomic load) when observation is disabled.
//
//d2x:noalloc
func Emit(e Event) {
	if !enabled.Load() {
		return
	}
	Default.Ring().Add(e)
}

// Snapshot captures the default registry: every counter, gauge and
// histogram, plus trace-ring occupancy. Marshal it with MarshalJSON /
// MarshalIndent for export.
func Snapshot() *Snap { return Default.Snapshot() }

// Reset zeroes every metric value and clears the trace ring of the
// default registry, in place: handles cached by instrumented packages
// remain valid. Meant for tests and for `stats reset` style tooling.
func Reset() { Default.Reset() }
