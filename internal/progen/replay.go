package progen

import (
	"bytes"
	"fmt"
	"strings"

	"d2x/internal/d2x"
)

// CheckReplay is the time-travel differential oracle. It drives one
// recorded debug session forward, capturing the full transcript at every
// stop, then checks three ways back against that forward leg:
//
//   - replay: rewind to several recorded marks with `record goto` and
//     re-drive the identical command tail;
//   - reverse-step: from every stop (latest first), `reverse-step` then
//     `step` must return to the same position with the same `bt` and
//     `xbt`, since the forward stop was reached by `next` and so sits on
//     the first statement boundary after the one reverse-step lands on;
//   - reverse-continue: from the earliest such stop, `reverse-continue`
//     must land on the forward run's previous breakpoint stop, the
//     `break main` stop the recording began at, printing the same stop
//     banner the forward `run` printed and the same `bt` and `xbt`.
//
// Deterministic replay means every transcript — stop banners, program
// output interleaved by `next`, stack traces, extended backtraces — must
// be byte-identical to the forward leg; any drift (scheduler
// nondeterminism, a snapshot missing state, frame IDs not restored, a
// statement boundary missing from the journal) surfaces as a diff.
//
// The per-stop script is read-only on the debuggee (`next`, `bt`, and
// `xbt` on D2X builds): debugger-side mutations like `set var` or
// writing rtv handlers are deliberately out of scope, since those are
// not part of the instruction history (the debugger forces a journal
// checkpoint for `set var` instead; see internal/minic/journal).
func CheckReplay(b *d2x.Build, maxStops int) error {
	var buf bytes.Buffer
	d, err := b.NewSession(&buf)
	if err != nil {
		return err
	}
	defer d.Close()

	// Commands that error produce no transcript; fold the error text in
	// so both legs must fail identically too.
	exec := func(cmd string) string {
		buf.Reset()
		if err := d.Execute(cmd); err != nil {
			return "command error: " + err.Error() + "\n"
		}
		return buf.String()
	}
	view := func() string {
		t := exec("bt")
		if b.Runtime != nil {
			t += exec("xbt")
		}
		return t
	}

	if out := exec("break main"); !strings.Contains(out, "Breakpoint 1") {
		return fmt.Errorf("break main: %s", out)
	}
	runOut := exec("run")
	if !strings.Contains(runOut, "Breakpoint 1,") {
		return fmt.Errorf("run did not stop at main:\n%s", runOut)
	}
	if err := d.Execute("record"); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	rec := d.ActiveRecorder()
	if rec == nil {
		return fmt.Errorf("record left no active recorder")
	}

	var (
		marks   []int64  // recorded position at each stop, pre-command
		forward []string // transcript of the per-stop script there
		views   []string // bt+xbt at each stop: views[k] is at marks[k]
	)
	views = append(views, view())
	for len(forward) < maxStops {
		marks = append(marks, rec.Step())
		next := exec("next")
		v := view()
		forward = append(forward, next+v)
		views = append(views, v)
		if strings.Contains(next, "[Program exited]") {
			break
		}
	}

	// Rewind to the start, the middle and the last stop; each replay
	// must regenerate the forward transcripts exactly.
	for _, i := range []int{0, len(marks) / 2, len(marks) - 1} {
		if err := d.Execute(fmt.Sprintf("record goto %d", marks[i])); err != nil {
			return fmt.Errorf("record goto %d: %w", marks[i], err)
		}
		for k := i; k < len(forward); k++ {
			if t := exec("next") + view(); t != forward[k] {
				return fmt.Errorf("replay from mark %d diverged at stop %d\n--- forward ---\n%s--- replay ---\n%s",
					marks[i], k, forward[k], t)
			}
		}
	}

	// reverse-step then step, latest stop first: a rewind discards the
	// history after it, so the next leg's mark must lie before it.
	for k := len(marks) - 1; k >= 1; k-- {
		if strings.Contains(views[k], "Program received fault") {
			continue
		}
		if err := d.Execute(fmt.Sprintf("record goto %d", marks[k])); err != nil {
			return fmt.Errorf("record goto %d: %w", marks[k], err)
		}
		if v := view(); v != views[k] {
			return fmt.Errorf("record goto %d: stop %d shows\n%s--- forward showed ---\n%s", marks[k], k, v, views[k])
		}
		back := exec("reverse-step")
		if strings.Contains(back, "No more reverse-execution history") {
			return fmt.Errorf("reverse-step from stop %d (position %d) found no earlier statement", k, marks[k])
		}
		fwd := exec("step")
		if got := rec.Step(); got != marks[k] {
			return fmt.Errorf("reverse-step then step from stop %d landed at position %d, want %d\n--- reverse-step ---\n%s--- step ---\n%s",
				k, got, marks[k], back, fwd)
		}
		if v := view(); v != views[k] {
			return fmt.Errorf("reverse-step then step from stop %d diverged\n--- forward ---\n%s--- after ---\n%s", k, views[k], v)
		}
	}

	if out := exec("reverse-continue"); out != runOut {
		return fmt.Errorf("reverse-continue printed\n%s--- forward run printed ---\n%s", out, runOut)
	}
	if got := rec.Step(); got != marks[0] {
		return fmt.Errorf("reverse-continue landed at position %d, want the break main stop at %d", got, marks[0])
	}
	if v := view(); v != views[0] {
		return fmt.Errorf("reverse-continue stop diverged\n--- forward ---\n%s--- after ---\n%s", views[0], v)
	}
	return nil
}
