package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func checkResult(t *testing.T, res *result, out string) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
		t.Fatalf("attempted %d, failed %d, correct %v:\n%s", res.Attempted, res.Failed, res.Correct, out)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that no op fails and that every metric BENCHMARK.json names is printed
// with its unit.
func TestSmoke(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := layerMetrics()
	if len(def.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark computes %d", len(def.PerLayer), len(want))
	}
	for i, m := range def.PerLayer {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), the benchmark computes %s (%s)", i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := plainRun(&out, w, 2, 0.3, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, out.String())
			for _, m := range def.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			out.Reset()
			res, err = tracedRun(&out, w, 2, 0.6, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, out.String())
			for _, m := range def.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", m.Name, got, m.Unit)
				}
			}
			for _, section := range []string{"tracing overhead", "p50 breakdown of " + w.name, "residual (unattributed)"} {
				if !strings.Contains(out.String(), section) {
					t.Errorf("traced run printed no %q:\n%s", section, out.String())
				}
			}
		})
	}
}

// TestResultLine checks the command line: the seed is printed and the
// last line is the result object with exactly its four keys.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "paused_queries", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.Contains(lines[0], "seed 3") {
		t.Errorf("first line %q does not print the seed", lines[0])
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is no JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result has %d keys, want 4", len(obj))
	}
	if code := run([]string{"--workload", "nope"}, &out, &out); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles
// with n=4 and the default exclusive method.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
}

// TestHistQuantile checks the latency histogram against exact ranks.
func TestHistQuantile(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 100000; ns++ {
		h.add(ns * 10)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, _ := h.quantile(q)
		want := q * 1e6
		if d := (got - want) / want; d > 0.01 || d < -0.01 {
			t.Errorf("quantile(%g) = %g, want %g within 1%%", q, got, want)
		}
	}
}

// TestRenderBreak checks that breakpoint-number placeholders count up.
func TestRenderBreak(t *testing.T) {
	got := renderBreak("Breakpoint {bp} at a\nBreakpoint {bp} at b\nInserting 2 breakpoints with ID: #{id}\n", 3, 7)
	want := "Breakpoint 7 at a\nBreakpoint 8 at b\nInserting 2 breakpoints with ID: #3\n"
	if got != want {
		t.Errorf("renderBreak = %q, want %q", got, want)
	}
}
