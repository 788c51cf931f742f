package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xr"
	"d2x/internal/debugger"
	"d2x/internal/graphit"
	"d2x/internal/minic"
)

// satGoroutines is the concurrency of the saturation run: enough to
// contend on the shared tables and the sharded counters, small enough to
// fit CI runners.
const satGoroutines = 8

// satCycleLen is the commands per workload cycle: six frame queries
// (xbt/xvars alternating) plus one xbreak+xdel breakpoint churn pair.
const satCycleLen = 8

// satMode is one saturation run's throughput.
type satMode struct {
	Commands              int64
	CommandsPerSec        float64
	CommandsPerSecPerCore float64
}

// satSession is one goroutine's paused debug session plus the typed
// inputs ($rip/$rsp equivalents) its batch ops need.
type satSession struct {
	d        *debugger.Debugger
	rt       *d2xr.Runtime
	vm       *minic.VM
	rip, rsp int64
	// id is the number of DSL breakpoints the session has created: each
	// cycle's xbreak takes the next ID and its xdel deletes it.
	id int
}

func newSatSession(tb testing.TB, build *d2x.Build) *satSession {
	tb.Helper()
	d := pausedSession(tb, build)
	// One primer command pays the session's share of the table decode
	// outside the measurement and records the paused rip/rsp the typed
	// ops reuse.
	mustExec(tb, d, "xbt")
	vm := d.Process().VM
	st := build.Runtime.StateFor(vm)
	return &satSession{d: d, rt: build.Runtime, vm: vm, rip: st.LastRIP, rsp: st.CurRSP}
}

// satSequential is one goroutine's share of the string-protocol run:
// every command goes through the macro layer, expression evaluation, and
// a native call, exactly as an interactive debugger would issue it.
func satSequential(s *satSession, cycles int, xbreakCmd string) error {
	scratch := make([]byte, 0, 16)
	for c := 0; c < cycles; c++ {
		for _, cmd := range [...]string{"xbt", "xvars", "xbt", "xvars", "xbt", "xvars"} {
			if err := s.d.Execute(cmd); err != nil {
				return err
			}
		}
		if err := s.d.Execute(xbreakCmd); err != nil {
			return err
		}
		s.id++
		scratch = append(scratch[:0], "xdel "...)
		scratch = strconv.AppendInt(scratch, int64(s.id), 10)
		if err := s.d.Execute(string(scratch)); err != nil {
			return err
		}
	}
	return nil
}

// satBatch is the same workload through the typed batch layer: one
// ExecBatch per cycle, with the break/clear scripts the batch returns
// replayed on the debugger — the part of the work a typed caller still
// owes, so the two modes leave identical session state.
func satBatch(s *satSession, cycles int, spec string) error {
	var res d2xr.BatchResults
	ops := make([]d2xr.BatchOp, satCycleLen)
	for i := 0; i < 6; i++ {
		kind := d2xr.BatchXBT
		if i%2 == 1 {
			kind = d2xr.BatchXVars
		}
		ops[i] = d2xr.BatchOp{Kind: kind, RIP: s.rip, RSP: s.rsp}
	}
	ops[6] = d2xr.BatchOp{Kind: d2xr.BatchXBreak, RIP: s.rip, Arg: spec}
	scratch := make([]byte, 0, 16)
	for c := 0; c < cycles; c++ {
		s.id++
		scratch = strconv.AppendInt(scratch[:0], int64(s.id), 10)
		ops[7] = d2xr.BatchOp{Kind: d2xr.BatchXDel, Arg: string(scratch)}
		s.rt.ExecBatch(s.vm, ops, &res)
		for i := range res.Ops {
			if err := res.Ops[i].Err; err != nil {
				return fmt.Errorf("batch op %d: %w", i, err)
			}
			if sc := res.Ops[i].Script; sc != "" {
				if err := satRunScript(s.d, sc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func satRunScript(d *debugger.Debugger, script string) error {
	for len(script) > 0 {
		line := script
		if nl := strings.IndexByte(script, '\n'); nl >= 0 {
			line, script = script[:nl], script[nl+1:]
		} else {
			script = ""
		}
		if line == "" {
			continue
		}
		if err := d.Execute(line); err != nil {
			return err
		}
	}
	return nil
}

// satSessions attaches n fresh sessions to one shared build, paused in
// the specialised UDF. The test closes them when it ends.
func satSessions(tb testing.TB, build *d2x.Build, n int) []*satSession {
	tb.Helper()
	sessions := make([]*satSession, n)
	for i := range sessions {
		sessions[i] = newSatSession(tb, build)
	}
	tb.Cleanup(func() {
		for _, s := range sessions {
			s.d.Close()
		}
	})
	return sessions
}

// runSaturation drives each session on a goroutine of its own through
// `cycles` rounds of the mixed workload and returns the aggregate
// throughput.
func runSaturation(tb testing.TB, sessions []*satSession, cycles int, batch bool) satMode {
	tb.Helper()
	dslLine := lineOf(graphit.PageRankDeltaSrc, "new_rank[dst] +=")
	spec := fmt.Sprintf("pagerankdelta.gt:%d", dslLine)

	var wg sync.WaitGroup
	errs := make(chan error, len(sessions))
	start := time.Now()
	for _, s := range sessions {
		wg.Add(1)
		go func(s *satSession) {
			defer wg.Done()
			var err error
			if batch {
				err = satBatch(s, cycles, spec)
			} else {
				err = satSequential(s, cycles, "xbreak "+spec)
			}
			if err != nil {
				errs <- err
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}

	mode := satMode{Commands: int64(len(sessions)) * int64(cycles) * satCycleLen}
	mode.CommandsPerSec = float64(mode.Commands) / elapsed.Seconds()
	mode.CommandsPerSecPerCore = mode.CommandsPerSec / float64(runtime.GOMAXPROCS(0))
	return mode
}

// TestSaturationSmoke keeps the harness itself honest on every ordinary
// `go test ./...`: both modes run a small slice of the workload on the
// same sessions of shared tables without errors and agree on the command
// count.
func TestSaturationSmoke(t *testing.T) {
	sessions := satSessions(t, pagerankBuild(t), 2)
	seq := runSaturation(t, sessions, 5, false)
	bat := runSaturation(t, sessions, 5, true)
	want := int64(2 * 5 * satCycleLen)
	if seq.Commands != want || bat.Commands != want {
		t.Fatalf("commands: sequential %d, batch %d, want %d", seq.Commands, bat.Commands, want)
	}
	if seq.CommandsPerSec <= 0 || bat.CommandsPerSec <= 0 {
		t.Fatalf("throughput not measured: sequential %+v, batch %+v", seq, bat)
	}
}
