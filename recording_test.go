package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"d2x/internal/graphit"
	"d2x/internal/minic"
	"d2x/internal/minic/journal"
)

// ---- Execution recording (time travel): forward-run overhead ----

// The recording pair runs the identical PageRankDelta computation with
// the execution journal attached and without it. The journal's budget is
// at most 15% wall-clock on the recorded run (the log takes 24 pooled
// bytes per statement boundary; snapshots amortise over
// DefaultSnapshotEvery steps) and exactly zero when off — recording off
// IS the plain VM loop, there
// is no disabled-but-present instrumentation to pay for. The gate in
// TestEmitRecordingBenchJSON holds the first claim; the deterministic
// instruction counter makes the workloads comparable instruction for
// instruction.

func BenchmarkRecording_Fig4Run_On(b *testing.B)  { benchRecordedRun(b, true) }
func BenchmarkRecording_Fig4Run_Off(b *testing.B) { benchRecordedRun(b, false) }

func benchRecordedRun(b *testing.B, record bool) {
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
	if err != nil {
		b.Fatal(err)
	}
	build, err := art.Link()
	if err != nil {
		b.Fatal(err)
	}
	var recorded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := minic.NewVM(build.Program, nil)
		if err := vm.Start(); err != nil {
			b.Fatal(err)
		}
		if record {
			j, err := journal.Attach(vm, journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := vm.RunToCompletion(0); err != nil {
				b.Fatal(err)
			}
			recorded = j.Step()
		} else if err := vm.RunToCompletion(0); err != nil {
			b.Fatal(err)
		}
	}
	if record {
		b.ReportMetric(float64(recorded), "recorded-instrs")
	}
}

// ---- Execution recording: command-path cost at a stop ----

// A recording changes nothing about what a paused debug command does:
// xbt at a stop walks the same frames and reads the same tables whether
// or not a journal is logging the (not currently executing) debuggee.
// The pair documents that the command path is recording-oblivious.

func BenchmarkRecording_XBT_On(b *testing.B)  { benchRecordingXBT(b, true) }
func BenchmarkRecording_XBT_Off(b *testing.B) { benchRecordingXBT(b, false) }

func benchRecordingXBT(b *testing.B, record bool) {
	d, _ := pausedPagerankDelta(b, "powerlaw:n=64,m=512,seed=5")
	if record {
		mustExec(b, d, "record")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Execute("xbt"); err != nil {
			b.Fatal(err)
		}
	}
}

// recBenchJSONFile is the committed machine-readable record of the
// recording-overhead experiment; CI regenerates and gates it like
// BENCH_pr5.json.
const recBenchJSONFile = "BENCH_pr9.json"

// recordingGatePct is the recording-on overhead ceiling on the Fig4
// forward run, in percent. The on/off pair is measured in the same
// process back to back, so machine speed cancels out of the ratio and
// the gate needs no committed baseline.
const recordingGatePct = 15

type recordingReport struct {
	PR         string        `json:"pr"`
	Go         string        `json:"go"`
	OS         string        `json:"os"`
	Arch       string        `json:"arch"`
	Benchmarks []benchResult `json:"benchmarks"`
	// RunOverheadPct is the gated number: wall-clock cost of recording
	// the Fig4 forward run, relative to the identical unrecorded run.
	RunOverheadPct float64 `json:"run_overhead_pct"`
	// XBTOverheadPct documents the command path staying recording-
	// oblivious; it hovers around zero and is not gated (command
	// latencies are noisy at the nanosecond scale).
	XBTOverheadPct float64 `json:"xbt_overhead_pct"`
}

// TestEmitRecordingBenchJSON measures the recording on/off pairs and
// writes BENCH_pr9.json. Gated behind the same env vars as the pr5
// record:
//
//	D2X_BENCH_JSON=1 go test -run TestEmitRecordingBenchJSON .
//
// With D2X_BENCH_GATE=1 as well, the test fails if recording the Fig4
// forward run costs more than recordingGatePct percent over the
// unrecorded run.
func TestEmitRecordingBenchJSON(t *testing.T) {
	if os.Getenv("D2X_BENCH_JSON") == "" {
		t.Skipf("set D2X_BENCH_JSON=1 to emit %s", recBenchJSONFile)
	}

	rep := recordingReport{
		PR: "pr9", Go: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	nsPerOp := map[string]float64{}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"Recording_Fig4Run_On", BenchmarkRecording_Fig4Run_On},
		{"Recording_Fig4Run_Off", BenchmarkRecording_Fig4Run_Off},
		{"Recording_XBT_On", BenchmarkRecording_XBT_On},
		{"Recording_XBT_Off", BenchmarkRecording_XBT_Off},
	} {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		nsPerOp[bm.name] = ns
		rep.Benchmarks = append(rep.Benchmarks, benchResult{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		t.Logf("%-24s %12.0f ns/op %8d allocs/op", bm.name, ns, r.AllocsPerOp())
	}

	rep.RunOverheadPct = 100 * (nsPerOp["Recording_Fig4Run_On"]/nsPerOp["Recording_Fig4Run_Off"] - 1)
	rep.XBTOverheadPct = 100 * (nsPerOp["Recording_XBT_On"]/nsPerOp["Recording_XBT_Off"] - 1)

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recBenchJSONFile, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (recording overhead %.1f%%, xbt delta %.1f%%)",
		recBenchJSONFile, rep.RunOverheadPct, rep.XBTOverheadPct)

	if os.Getenv("D2X_BENCH_GATE") == "" {
		return
	}
	if rep.RunOverheadPct > recordingGatePct {
		t.Errorf("recording overhead %.1f%% exceeds the %d%% budget",
			rep.RunOverheadPct, recordingGatePct)
	} else {
		t.Logf("gate ok: recording overhead %.1f%% within %d%%",
			rep.RunOverheadPct, recordingGatePct)
	}
}
