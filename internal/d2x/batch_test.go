package d2x

import (
	"strings"
	"testing"

	"d2x/internal/d2x/d2xr"
)

// runScript executes a break/clear script returned by a typed batch op
// on the session's debugger, line by line — what a typed caller does in
// place of the xbreak/xdel macros' eval step.
func runScript(t *testing.T, d interface{ Execute(string) error }, script string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(script), "\n") {
		if line == "" {
			continue
		}
		if err := d.Execute(line); err != nil {
			t.Fatalf("script line %q: %v", line, err)
		}
	}
}

// TestExecBatchMatchesSingleCommands is the typed-layer correctness pin:
// one ExecBatch over a mixed command sequence must be byte-identical to
// executing the same commands one native call each — including the
// debugger-side effects of the scripts xbreak/xdel return, and including
// which commands fail.
func TestExecBatchMatchesSingleCommands(t *testing.T) {
	b := buildPower(t, true)
	dA, outA := session(t, b) // singles
	dB, outB := session(t, b) // batch
	exec(t, dA, "break power_gen.c:5", "run")
	exec(t, dB, "break power_gen.c:5", "run")
	rt := b.Runtime

	// Learn the paused rip/rsp the macros would pass: run one xbt on the
	// singles session and read them back from its session state. Both
	// sessions pause at the same deterministic spot.
	exec(t, dA, "xbt")
	stA := rt.StateFor(dA.Process().VM)
	rip, rsp := stA.LastRIP, stA.CurRSP

	steps := []struct {
		line string
		op   d2xr.BatchOp
	}{
		{"xbt", d2xr.BatchOp{Kind: d2xr.BatchXBT, RIP: rip, RSP: rsp}},
		{"xframe 1", d2xr.BatchOp{Kind: d2xr.BatchXFrame, RIP: rip, RSP: rsp, Arg: "1"}},
		{"xlist", d2xr.BatchOp{Kind: d2xr.BatchXList, RIP: rip, RSP: rsp}},
		{"xvars", d2xr.BatchOp{Kind: d2xr.BatchXVars, RIP: rip, RSP: rsp}},
		{"xframe 0", d2xr.BatchOp{Kind: d2xr.BatchXFrame, RIP: rip, RSP: rsp, Arg: "0"}},
		{"xvars res_view", d2xr.BatchOp{Kind: d2xr.BatchXVars, RIP: rip, RSP: rsp, Arg: "res_view"}},
		{"xbreak power.dsl:6", d2xr.BatchOp{Kind: d2xr.BatchXBreak, RIP: rip, Arg: "power.dsl:6"}},
		{"xbreak", d2xr.BatchOp{Kind: d2xr.BatchXBreak, RIP: rip}},
		{"xbreak power.dsl:999", d2xr.BatchOp{Kind: d2xr.BatchXBreak, RIP: rip, Arg: "power.dsl:999"}},
		{"xdel 1", d2xr.BatchOp{Kind: d2xr.BatchXDel, Arg: "1"}},
		{"xdel 1", d2xr.BatchOp{Kind: d2xr.BatchXDel, Arg: "1"}}, // now gone: fails
		{"xbt", d2xr.BatchOp{Kind: d2xr.BatchXBT, RIP: rip, RSP: rsp}},
	}

	type result struct {
		out string
		err error
	}
	single := make([]result, len(steps))
	for i, s := range steps {
		outA.Reset()
		err := dA.Execute(s.line)
		single[i] = result{outA.String(), err}
	}

	ops := make([]d2xr.BatchOp, len(steps))
	for i, s := range steps {
		ops[i] = s.op
	}
	var res d2xr.BatchResults
	rt.ExecBatch(dB.Process().VM, ops, &res)
	if len(res.Ops) != len(steps) {
		t.Fatalf("ExecBatch returned %d results for %d ops", len(res.Ops), len(steps))
	}

	for i := range steps {
		sErr, bErr := single[i].err, res.Ops[i].Err
		if (sErr == nil) != (bErr == nil) {
			t.Errorf("step %d (%s): single err = %v, batch err = %v", i, steps[i].line, sErr, bErr)
			continue
		}
		if bErr != nil {
			// The macro path wraps the native error; the typed path returns
			// it bare. The underlying failure must be the same one.
			if !strings.Contains(sErr.Error(), bErr.Error()) {
				t.Errorf("step %d (%s): single err %q does not carry batch err %q", i, steps[i].line, sErr, bErr)
			}
			if len(res.Output(i)) != 0 {
				t.Errorf("step %d (%s): failed op left output %q", i, steps[i].line, res.Output(i))
			}
			continue
		}
		// The single path's transcript is the native output plus whatever
		// the returned script printed when eval executed it; replay the
		// typed op's script on the batch session to line the two up.
		combined := string(res.Output(i))
		if sc := res.Ops[i].Script; sc != "" {
			outB.Reset()
			runScript(t, dB, sc)
			combined += outB.String()
		}
		if combined != single[i].out {
			t.Errorf("step %d (%s) diverged:\nsingle: %q\nbatch:  %q", i, steps[i].line, single[i].out, combined)
		}
	}
}
