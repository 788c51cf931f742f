package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// steadiness runs two interleaved sets of n runs of each workload (or of
// the named one), every run in its own process, run i of both sets with
// seed+i, alternating which set goes first. For each end-to-end metric it
// prints each set's median, quartiles and spread, and the difference of
// the second set's median from the first's against the metric's bound.
func steadiness(out io.Writer, name string, n int, seed int64, seconds float64, benchPath string) error {
	def, err := readBenchmarkDef(benchPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ran := false
	for _, w := range workloads {
		if name != "" && w.name != name {
			continue
		}
		ran = true
		var sets [2][]*result
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				res, err := runChild(exe, w.name, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed+int64(i), res.Failed, res.Attempted)
				}
				sets[s] = append(sets[s], res)
			}
		}
		fmt.Fprintf(out, "%s: 2 sets x %d runs, seeds %d..%d, %gs each\n", w.name, n, seed, seed+int64(n)-1, seconds)
		fmt.Fprintf(out, "  %-18s %-38s %-38s %8s %6s\n", "metric", "set 1 median [q1, q3] spread", "set 2 median [q1, q3] spread", "worse", "bound")
		for _, m := range def.EndToEnd {
			var cells [2]string
			var med [2]float64
			var spread [2]float64
			for s := range sets {
				var v []float64
				for _, r := range sets[s] {
					v = append(v, r.Metrics[m.Name].Value)
				}
				q := quartiles(v)
				med[s] = median(v)
				spread[s] = (q[2] - q[0]) / med[s]
				cells[s] = fmt.Sprintf("%.4g [%.4g, %.4g] %.3f", med[s], q[0], q[2], spread[s])
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound)) {
				verdict = "OUT OF BOUND"
			}
			fmt.Fprintf(out, "  %-18s %-38s %-38s %+7.3f %6.3f %s\n", m.Name, cells[0], cells[1], worse, m.Bound, verdict)
		}
		fmt.Fprintf(out, "  per run, seed order (set 1 | set 2):\n")
		for _, m := range def.EndToEnd {
			fmt.Fprintf(out, "  %-18s", m.Name)
			for s := range sets {
				if s == 1 {
					fmt.Fprint(out, " |")
				}
				for _, r := range sets[s] {
					fmt.Fprintf(out, " %.4g", r.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintln(out)
		}
	}
	if !ran {
		return fmt.Errorf("unknown workload %q", name)
	}
	return nil
}

// runChild runs one untraced run in a child process and parses its
// result line.
func runChild(exe, name string, seed int64, seconds float64) (*result, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %v: %s", name, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return &res, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) with its default exclusive method.
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
