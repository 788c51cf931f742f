// Command perfbench is the repository's benchmark: three closed-loop
// workloads, each measured end to end, plus a traced run that times every
// layer from outside through its public functions.
//
//	perfbench --workload paused_queries --seed 1 --seconds 30 --trace 0
//
// prints progress lines and, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. --steadiness N
// instead runs two interleaved sets of N runs of each workload in child
// processes and prints each end-to-end metric's median, quartiles and
// set-to-set difference against the bound in BENCHMARK.json.
//
// Run it through perfbench/run.sh from the repository root, which builds
// the binary first. Its smoke test runs with `go test` in perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

var workloads = []*workload{pausedQueries, runAndRewind, editCompileDebug}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paused_queries, run_and_rewind or edit_compile_debug")
	seed := fs.Int64("seed", 1, "workload seed: op sequences, graph and corpus order derive from it")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	steady := fs.Int("steadiness", 0, "run two interleaved sets of this many runs per workload and print their spread")
	writeExp := fs.String("write-expected", "", "regenerate the paused_queries expected outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *steady > 0 {
		if err := steadiness(stdout, *name, *steady, *seed, *seconds, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paused_queries, run_and_rewind, edit_compile_debug), --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(stdout, w, *seed, *seconds, w.setupReps, *traceDir)
	} else {
		res, err = plainRun(stdout, w, *seed, *seconds, w.setupReps)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(out io.Writer, w *workload, seed int64, seconds float64, reps int) (*result, error) {
	inst, setupS, err := setupRepeated(w, seed, reps)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	collect()
	p := measure(inst.clients(), w.blockOps, dur(seconds), nil)
	report(out, p)
	return &result{
		Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: endToEnd(p, setupS),
	}, nil
}

// report prints a measured phase's sample counts and first failure.
func report(out io.Writer, p *phaseResult) {
	_, above := p.all.quantile(0.99)
	fmt.Fprintf(out, "ops attempted %d failed %d, %d samples above the p99 bucket, %d blocks, %d live-heap samples\n",
		p.attempted, p.failed, above, len(p.blockTput), len(p.liveHeap))
	if p.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", p.firstErr)
	}
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }
