package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"d2x/internal/d2x/wire"
	"d2x/internal/obs"
)

// span is one timed call into a layer's public function. Op is the index
// of the op's root span; a root span has parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// maxWireOps caps the request/response pairs a traced run keeps for the
// codec probe, and maxSpans the spans it keeps; once full, spans of new
// ops are dropped whole.
const (
	maxWireOps = 4096
	maxSpans   = 100_000
)

// tracer keeps the traced run's spans and wire frames in memory; they are
// written out when the run ends. A nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	wireOps [][]*wire.Frame
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span under parent (-1 for an op's root span) and returns
// its id, or -1 when the span is not kept.
func (t *tracer) start(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 && len(t.spans) >= maxSpans {
		return -1
	}
	id := int32(len(t.spans))
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return id
}

// finish closes a span.
func (t *tracer) finish(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// wireOp keeps the request and response frames of one op for the codec
// probe.
func (t *tracer) wireOp(frames ...*wire.Frame) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.wireOps) < maxWireOps {
		t.wireOps = append(t.wireOps, frames)
	}
}

// perOpUS returns, in microseconds, the median over ops of the time each
// op spent in spans whose name starts with prefix.
func (t *tracer) perOpUS(prefix string) float64 {
	sum := map[int32]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && strings.HasPrefix(s.Name, prefix) {
			sum[s.Op] += s.End - s.Start
		}
	}
	var v []float64
	for i, s := range t.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			v = append(v, float64(sum[int32(i)])/1e3)
		}
	}
	return median(v)
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// inProcessFrames renders an in-process debugger command and its output
// as the wire request and response a remote client would exchange.
func inProcessFrames(line, output string) []*wire.Frame {
	cmd, arg, _ := strings.Cut(line, " ")
	var args *wire.Args
	if arg != "" {
		args = &wire.Args{Spec: arg}
	}
	req := wire.Request(0, cmd, args)
	return []*wire.Frame{req, wire.Response(0, req, &wire.Body{Output: output})}
}

// counters is a cut of the program's obs counters, the Go runtime's
// allocation and GC counters, and process CPU time.
type counters struct {
	obs    map[string]int64
	allocs uint64
	bytes  uint64
	gcs    uint64
	cpu    time.Duration
}

func readCounters() counters {
	snap := obs.Snapshot()
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return counters{
		obs:    snap.Counters,
		allocs: s[0].Value.Uint64(),
		bytes:  s[1].Value.Uint64(),
		gcs:    s[2].Value.Uint64(),
		cpu:    cpuTime(),
	}
}

// delta returns the growth of every counter whose name matches one of
// the patterns ("prefix*suffix" or an exact name) from a to b.
func (b counters) delta(a counters, patterns ...string) int64 {
	var n int64
	for name, v := range b.obs {
		for _, p := range patterns {
			pre, suf, wild := strings.Cut(p, "*")
			if name == p || (wild && strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf)) {
				n += v - a.obs[name]
				break
			}
		}
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	name, unit string
}

// d2xCommands are the six D2X commands the per-command metrics cover.
var d2xCommands = []string{"xbt", "xframe", "xlist", "xvars", "xbreak", "xdel"}

// layerMetrics lists every per-layer metric, in the order BENCHMARK.json
// lists them.
func layerMetrics() []layerMetric {
	m := []layerMetric{
		{"wire.codec_us_p50", "us"}, {"wire.bytes_per_op", "bytes"},
		{"serve.handle_us_p50", "us"}, {"serve.transport_us_p50", "us"},
		{"serve.requests_per_op", "count"}, {"serve.request_errors", "count"},
	}
	for _, c := range d2xCommands {
		m = append(m, layerMetric{"debugger.execute_us_p50." + c, "us"})
	}
	for _, c := range d2xCommands {
		m = append(m, layerMetric{"debugger.macro_eval_us_p50." + c, "us"})
	}
	m = append(m,
		layerMetric{"debugger.commands_per_op", "count"},
		layerMetric{"debugger.resume_ns_per_instr", "ns"},
		layerMetric{"debugger.stop_check_ns_per_instr", "ns"},
	)
	for _, c := range d2xCommands {
		m = append(m, layerMetric{"d2xr.exec_us_p50." + c, "us"})
	}
	return append(m,
		layerMetric{"d2xr.rtv_evals_per_op", "count"}, layerMetric{"d2xr.rtv_fuel_per_op", "count"},
		layerMetric{"d2xr.filecache_hit_ratio", "ratio"}, layerMetric{"d2xr.cmd_errors", "count"},
		layerMetric{"session.resolve_ns_p50", "ns"}, layerMetric{"session.fused_build_ms_p50", "ms"},
		layerMetric{"session.decodes_per_op", "count"}, layerMetric{"session.fused_builds_per_op", "count"},
		layerMetric{"session.state_creates_per_op", "count"},
		layerMetric{"d2xenc.emit_ms_p50", "ms"}, layerMetric{"d2xenc.decode_ms_p50", "ms"},
		layerMetric{"d2xenc.table_bytes_p50", "bytes"},
		layerMetric{"minic.compile_ms_p50", "ms"}, layerMetric{"minic.optimize_rewrites_per_op", "count"},
		layerMetric{"minic.ns_per_instr", "ns"}, layerMetric{"minic.instrs_per_op", "count"},
		layerMetric{"minic.snapshot_ms_p50", "ms"},
		layerMetric{"journal.record_ns_per_instr", "ns"}, layerMetric{"journal.restore_ms_p50", "ms"},
		layerMetric{"journal.replay_steps_per_reverse_op", "count"},
		layerMetric{"journal.snapshots_per_cycle", "count"}, layerMetric{"journal.record_mib", "MiB"},
		layerMetric{"dwarfish.encode_ms_p50", "ms"}, layerMetric{"dwarfish.decode_ms_p50", "ms"},
		layerMetric{"effects.analyze_ms_p50", "ms"},
		layerMetric{"graphit.compile_ms_p50", "ms"}, layerMetric{"d2xc.render_ms_p50", "ms"},
		layerMetric{"d2x.link_ms_p50", "ms"}, layerMetric{"d2x.new_session_ms_p50", "ms"},
		layerMetric{"go.allocs_per_op", "count"}, layerMetric{"go.alloc_kib_per_op", "KiB"},
		layerMetric{"go.gc_cycles_per_kop", "count"}, layerMetric{"go.cpu_ms_per_op", "ms"},
	)
}

// tracedRun runs the workload's measured phase twice on one set-up,
// first untraced and then traced, each for half the run, then the probe
// phase. It prints the tracing overhead and the p50 breakdown and
// returns the per-layer metrics.
func tracedRun(out io.Writer, w *workload, seed int64, seconds float64, reps int, dir string) (*result, error) {
	inst, _, err := setupRepeated(w, seed, reps)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	collect()
	plain := measure(inst.clients(), w.blockOps, dur(seconds/2), nil)
	collect()
	tr := newTracer()
	c0 := readCounters()
	traced := measure(inst.clients(), w.blockOps, dur(seconds/2), tr)
	c1 := readCounters()
	report(out, traced)

	pt, err := inst.probe()
	if err != nil {
		return nil, fmt.Errorf("probe phase: %w", err)
	}
	pr, err := runProbes(pt)
	if err != nil {
		return nil, fmt.Errorf("probe phase: %w", err)
	}
	lm := layerValues(inst, tr, traced, c0, c1, pr)

	e2ePlain, e2eTraced := endToEnd(plain, 0), endToEnd(traced, 0)
	fmt.Fprintf(out, "tracing overhead (untraced -> traced, %.3gs each):\n", seconds/2)
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p99_ms", "live_heap_p50_mb"} {
		a, b := e2ePlain[name].Value, e2eTraced[name].Value
		fmt.Fprintf(out, "  %-16s %12.4f -> %12.4f %s (%+.1f%%)\n", name, a, b, e2ePlain[name].Unit, 100*(b-a)/a)
	}
	// The VM instructions of a typical op: a forward continue on
	// run_and_rewind, the median cycle on edit_compile_debug.
	instrs := lm["minic.instrs_per_op"]
	switch in := inst.(type) {
	case *rewindInstance:
		if in.forwardOps > 0 {
			instrs = float64(in.forwardSteps) / float64(in.forwardOps)
		}
	case *ecdInstance:
		instrs = median(in.opSteps)
	}
	printBreakdown(out, w.name, e2eTraced["op_p50_ms"].Value*1000, instrs, lm, tr)
	path, err := tr.write(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), path)

	for _, m := range layerMetrics() {
		if math.IsNaN(lm[m.name]) {
			return nil, fmt.Errorf("per-layer metric %s has no samples", m.name)
		}
	}
	res := &result{
		Correct:   plain.failed == 0 && traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerMetrics() {
		res.Metrics[m.name] = metric{lm[m.name], m.unit}
	}
	return res, nil
}

// layerValues computes every per-layer metric from the traced phase's
// counters and spans and the probe results.
func layerValues(inst instance, tr *tracer, traced *phaseResult, c0, c1 counters, pr *probeResults) map[string]float64 {
	ops := float64(traced.attempted)
	perOp := func(n int64) float64 { return float64(n) / ops }
	v := map[string]float64{}

	codecUS, bytes := codecCost(tr.wireOps)
	v["wire.codec_us_p50"] = median(codecUS)
	v["wire.bytes_per_op"] = median(bytes)
	v["serve.handle_us_p50"] = median(pr.handleUS)
	v["serve.transport_us_p50"] = median(pr.transportUS)
	v["serve.requests_per_op"] = perOp(c1.delta(c0, "serve.requests"))
	v["serve.request_errors"] = float64(c1.delta(c0, "serve.request_errors"))

	for _, c := range d2xCommands {
		ex, rt := median(pr.executeUS[c]), median(pr.execUS[c])
		v["debugger.execute_us_p50."+c] = ex
		v["debugger.macro_eval_us_p50."+c] = ex - rt
		v["d2xr.exec_us_p50."+c] = rt
	}
	v["debugger.commands_per_op"] = perOp(c1.delta(c0, "debugger.commands"))
	v["debugger.resume_ns_per_instr"] = pr.resumeNS
	v["debugger.stop_check_ns_per_instr"] = pr.resumeNS - pr.rawResumeNS

	v["d2xr.rtv_evals_per_op"] = perOp(c1.delta(c0, "d2xr.rtv.guarded", "d2xr.rtv.unguarded"))
	v["d2xr.rtv_fuel_per_op"] = perOp(c1.delta(c0, "d2xr.rtv.fuel_spent"))
	hits, misses := c1.delta(c0, "d2xr.filecache.hits"), c1.delta(c0, "d2xr.filecache.misses")
	if hits+misses > 0 {
		v["d2xr.filecache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["d2xr.cmd_errors"] = float64(c1.delta(c0, "d2xr.cmd.*.errors"))

	v["session.resolve_ns_p50"] = median(pr.resolveNS)
	v["session.fused_build_ms_p50"] = median(pr.fusedBuildMS)
	v["session.decodes_per_op"] = perOp(c1.delta(c0, "session.tables.decodes"))
	v["session.fused_builds_per_op"] = perOp(c1.delta(c0, "session.fused.builds"))
	v["session.state_creates_per_op"] = perOp(c1.delta(c0, "session.state.creates"))

	v["d2xenc.emit_ms_p50"] = median(pr.emitMS)
	v["d2xenc.decode_ms_p50"] = median(pr.decodeMS)
	v["d2xenc.table_bytes_p50"] = median(pr.tableBytes)

	v["minic.compile_ms_p50"] = median(pr.compileMS)
	v["minic.ns_per_instr"] = pr.rawNS
	v["minic.snapshot_ms_p50"] = median(pr.snapshotMS)
	v["journal.record_ns_per_instr"] = pr.journalNS - pr.rawNS
	v["journal.restore_ms_p50"] = median(pr.restoreMS)
	v["journal.snapshots_per_cycle"] = float64(pr.snapshots)
	v["journal.record_mib"] = pr.recordMiB

	v["dwarfish.encode_ms_p50"] = median(pr.dwarfEncodeMS)
	v["dwarfish.decode_ms_p50"] = median(pr.dwarfDecodeMS)
	v["effects.analyze_ms_p50"] = median(pr.effectsMS)

	v["graphit.compile_ms_p50"] = median(pr.graphitMS)
	v["d2xc.render_ms_p50"] = median(pr.renderMS)
	v["d2x.link_ms_p50"] = median(pr.linkMS)
	v["d2x.new_session_ms_p50"] = median(pr.newSessionMS)

	switch in := inst.(type) {
	case *pausedInstance:
		v["minic.instrs_per_op"] = pr.instrsPerRead
	case *rewindInstance:
		v["minic.instrs_per_op"] = float64(in.forwardSteps+in.replaySteps) / ops
		if in.reverseOps > 0 {
			v["journal.replay_steps_per_reverse_op"] = float64(in.replaySteps) / float64(in.reverseOps)
		}
		if in.forwardSteps > 0 {
			// The workload's own forward ops, recording on.
			v["debugger.resume_ns_per_instr"] = float64(in.fwdNS) / float64(in.forwardSteps)
			v["debugger.stop_check_ns_per_instr"] = v["debugger.resume_ns_per_instr"] - pr.journalNS
		}
	case *ecdInstance:
		var steps float64
		for _, n := range in.opSteps {
			steps += n
		}
		v["minic.instrs_per_op"] = steps / ops
		v["minic.optimize_rewrites_per_op"] = float64(in.rewrites) / ops
	}

	v["go.allocs_per_op"] = float64(c1.allocs-c0.allocs) / ops
	v["go.alloc_kib_per_op"] = float64(c1.bytes-c0.bytes) / 1024 / ops
	v["go.gc_cycles_per_kop"] = float64(c1.gcs-c0.gcs) * 1000 / ops
	v["go.cpu_ms_per_op"] = float64(c1.cpu-c0.cpu) / 1e6 / ops
	return v
}

// codecCost encodes and decodes each kept op's request and response on an
// in-memory buffer and returns the per-op time in microseconds and bytes.
// An op whose frames do not round-trip (none should: every frame here
// came off a live connection or is far below the frame cap) is left out.
func codecCost(ops [][]*wire.Frame) (us, bytes []float64) {
	var buf strings.Builder
next:
	for _, fr := range ops {
		t0 := time.Now()
		n := 0
		for _, f := range fr {
			buf.Reset()
			if err := wire.NewEncoder(&buf).Encode(f); err != nil {
				continue next
			}
			n += buf.Len()
			if _, err := wire.NewDecoder(strings.NewReader(buf.String())).Decode(); err != nil {
				continue next
			}
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		bytes = append(bytes, float64(n))
	}
	return us, bytes
}

// printBreakdown prints the workload's p50 op latency split into layer
// self times, each a layer entry's p50 minus the p50 of the entry one
// level down, and the part no layer accounts for.
func printBreakdown(out io.Writer, name string, opUS, instrs float64, v map[string]float64, tr *tracer) {
	type part struct {
		layer string
		us    float64
	}
	mean := func(prefix string, cmds ...string) float64 {
		s := 0.0
		for _, c := range cmds {
			s += v[prefix+c]
		}
		return s / float64(len(cmds))
	}
	var parts []part
	switch name {
	case "paused_queries":
		reads := []string{"xbt", "xframe", "xlist", "xvars"}
		exec, rt := mean("debugger.execute_us_p50.", reads...), mean("d2xr.exec_us_p50.", reads...)
		resolve := v["session.resolve_ns_p50"] / 1e3
		parts = []part{
			{"wire (codec)", v["wire.codec_us_p50"]},
			{"serve (transport)", v["serve.transport_us_p50"]},
			{"serve (handle self)", v["serve.handle_us_p50"] - exec},
			{"debugger (macro/eval)", exec - rt},
			{"d2xr (self)", rt - resolve},
			{"session (resolve)", resolve},
		}
	case "run_and_rewind":
		// The p50 op is a forward continue: instrs is the mean VM
		// instructions of one.
		parts = []part{
			{"minic (VM)", instrs * v["minic.ns_per_instr"] / 1e3},
			{"journal (record)", instrs * v["journal.record_ns_per_instr"] / 1e3},
			{"debugger (stop checks)", instrs * v["debugger.stop_check_ns_per_instr"] / 1e3},
		}
	case "edit_compile_debug":
		// The op's own spans give each entry's per-op p50; the probes
		// split the link and the debugger commands one level down.
		inLink := (v["minic.compile_ms_p50"] + v["d2xenc.emit_ms_p50"] + v["dwarfish.encode_ms_p50"] + v["effects.analyze_ms_p50"]) * 1e3
		vm := instrs * v["minic.ns_per_instr"] / 1e3
		cold := (v["d2xenc.decode_ms_p50"] + v["session.fused_build_ms_p50"]) * 1e3
		parts = []part{
			{"graphit/d2xc (render)", tr.perOpUS("progen.Render.")},
			{"d2x (link self)", tr.perOpUS("progen.Program.Build") - inLink},
			{"minic (compile)", v["minic.compile_ms_p50"] * 1e3},
			{"d2xenc (emit)", v["d2xenc.emit_ms_p50"] * 1e3},
			{"dwarfish (encode)", v["dwarfish.encode_ms_p50"] * 1e3},
			{"effects (analyze)", v["effects.analyze_ms_p50"] * 1e3},
			{"d2x (new session)", tr.perOpUS("d2x.Build.NewSession")},
			{"debugger (commands self)", tr.perOpUS("debugger.Execute") - vm - cold},
			{"d2xenc+session (cold path)", cold},
			{"minic (VM)", vm},
		}
	}
	fmt.Fprintf(out, "p50 breakdown of %s (op p50 %.1f us):\n", name, opUS)
	sum := 0.0
	for _, p := range parts {
		fmt.Fprintf(out, "  %-28s %10.1f us  %5.1f%%\n", p.layer, p.us, 100*p.us/opUS)
		sum += p.us
	}
	fmt.Fprintf(out, "  %-28s %10.1f us  %5.1f%%\n", "residual (unattributed)", opUS-sum, 100*(opUS-sum)/opUS)
}
