package obs

import (
	"encoding/json"
	"time"
)

// Snap is a point-in-time capture of a registry: the export format of
// the debug service's observability layer. It marshals to stable JSON
// (maps sort by key) for d2xdemo -stats, the d2xdbg stats command, the
// d2xserve stats request, and perfbench's traced runs.
type Snap struct {
	// TakenAt is the capture time in Unix nanoseconds.
	TakenAt int64 `json:"taken_at"`
	// Enabled reports whether timing/event capture was on.
	Enabled bool `json:"enabled"`

	Counters  map[string]int64       `json:"counters"`
	Gauges    map[string]GaugeSnap   `json:"gauges"`
	Latencies map[string]LatencySnap `json:"latencies"`

	// TraceEvents is how many events the ring holds; TraceWritten how
	// many were ever recorded (the difference is what wrapping dropped).
	TraceEvents  int   `json:"trace_events"`
	TraceWritten int64 `json:"trace_written"`
}

// GaugeSnap is one gauge: current value and high-water mark.
type GaugeSnap struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// LatencySnap summarises one histogram in nanoseconds. Quantiles are
// log2-bucket estimates (see Histogram.Quantile).
type LatencySnap struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Snapshot captures every registered metric. Values are read with the
// same atomics updates use; a snapshot taken while commands run is a
// consistent-enough cut (each individual value is untorn).
func (r *Registry) Snapshot() *Snap {
	s := &Snap{
		TakenAt:      time.Now().UnixNano(),
		Enabled:      Enabled(),
		Counters:     map[string]int64{},
		Gauges:       map[string]GaugeSnap{},
		Latencies:    map[string]LatencySnap{},
		TraceEvents:  r.ring.Len(),
		TraceWritten: r.ring.Written(),
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.sharded.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*ShardedCounter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		g := v.(*Gauge)
		s.Gauges[k.(string)] = GaugeSnap{Value: g.Value(), Max: g.Max()}
		return true
	})
	r.hists.Range(func(k, v any) bool {
		h := v.(*Histogram)
		ls := LatencySnap{
			Count: h.Count(), SumNS: h.SumNS(), MaxNS: h.MaxNS(),
			P50NS: h.Quantile(0.50), P90NS: h.Quantile(0.90), P99NS: h.Quantile(0.99),
		}
		if ls.Count > 0 {
			ls.MeanNS = ls.SumNS / ls.Count
		}
		s.Latencies[k.(string)] = ls
		return true
	})
	return s
}

// MarshalIndent renders the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys, so output is diff-stable).
func (s *Snap) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
