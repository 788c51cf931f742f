package debugger

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/obs"
)

// Dispatch metrics. The debugger knows nothing about D2X (the arch lint
// enforces it), but it is still part of the observed debug service:
// every command dispatch is counted and timed. Handles are resolved once
// here; the per-command counters below use a fixed canonical name set so
// arbitrary user input cannot mint unbounded metric names.
var (
	dbgCommands = obs.GetCounter("debugger.commands")
	dbgErrors   = obs.GetCounter("debugger.errors")
	dbgLatency  = obs.GetHistogram("debugger.dispatch")

	// dispatchTick drives 1-in-dispatchSampleEvery sampling of the
	// dispatch latency histogram. Command and error counters stay exact;
	// only the distribution is sampled, because on this path two clock
	// reads cost a measurable fraction of a whole D2X command.
	dispatchTick atomic.Int64
)

// dispatchSampleEvery is the dispatch-latency sampling stride.
const dispatchSampleEvery = 8

// A command is one built-in debugger command: the counter of its
// dispatches, named after its canonical spelling, and its handler, which
// gets the rest of the command line.
type command struct {
	counter *obs.Counter
	run     func(d *Debugger, rest string) error
}

// commands maps every accepted spelling of a built-in command to it ("b"
// and "break" to break). Anything not in the map is a macro or an
// unknown command, counted under cmdMacro or cmdUnknown. The handlers
// reach Execute, so the map is filled in init: a package-level
// initialiser that refers to them would be an initialisation cycle.
var commands map[string]*command

var (
	cmdMacro   = obs.GetCounter("debugger.cmd.macro")
	cmdUnknown = obs.GetCounter("debugger.cmd.unknown")
)

func init() {
	commands = map[string]*command{}
	// Each entry lists a command's spellings, canonical name first.
	for _, e := range []struct {
		spellings string
		run       func(d *Debugger, rest string) error
	}{
		{"break b", (*Debugger).cmdBreak},
		{"delete d", (*Debugger).cmdDelete},
		{"clear", (*Debugger).cmdClear},
		{"watch", (*Debugger).cmdWatch},
		{"unwatch", (*Debugger).cmdUnwatch},
		{"display", (*Debugger).cmdDisplay},
		{"undisplay", (*Debugger).cmdUndisplay},
		{"disas disassemble", (*Debugger).cmdDisas},
		{"run r", resume((*Debugger).Run)},
		{"continue c", resume((*Debugger).Continue)},
		{"step s", resume((*Debugger).StepInto)},
		{"next n", resume((*Debugger).StepOver)},
		{"finish", resume((*Debugger).StepOut)},
		{"backtrace bt", func(d *Debugger, _ string) error { return d.cmdBacktrace() }},
		{"frame f", (*Debugger).cmdFrame},
		{"up", func(d *Debugger, rest string) error { return d.cmdUpDown(rest, +1) }},
		{"down", func(d *Debugger, rest string) error { return d.cmdUpDown(rest, -1) }},
		{"list l", (*Debugger).cmdList},
		{"print p", (*Debugger).cmdPrint},
		{"call", (*Debugger).cmdCall},
		{"set", (*Debugger).cmdSet},
		{"eval", (*Debugger).cmdEval},
		{"thread t", (*Debugger).cmdThread},
		{"info", (*Debugger).cmdInfo},
		{"echo", func(d *Debugger, rest string) error {
			d.printf("%s\n", rest)
			return nil
		}},
		{"stats", func(d *Debugger, _ string) error { return d.cmdStats() }},
		{"trace", (*Debugger).cmdTrace},
		{"record", (*Debugger).cmdRecord},
		{"reverse-step rs", resume((*Debugger).ReverseStep)},
		{"reverse-continue rc", resume((*Debugger).ReverseContinue)},
	} {
		names := strings.Fields(e.spellings)
		c := &command{counter: obs.GetCounter("debugger.cmd." + names[0]), run: e.run}
		for _, n := range names {
			commands[n] = c
		}
	}
}

// resume makes a handler of an execution command: it runs the command
// and reports where the program stopped.
func resume(exec func(*Debugger) (Stop, error)) func(*Debugger, string) error {
	return func(d *Debugger, _ string) error {
		stop, err := exec(d)
		if err != nil {
			return err
		}
		d.reportStop(stop)
		return nil
	}
}

// Execute runs one debugger command line, writing its transcript output to
// the debugger's writer. Unknown commands fall through to user-defined
// macros. Errors are returned (the interactive driver prints them; scripts
// may choose to stop). Every dispatch — including commands a macro or an
// eval expansion issues — is counted and timed in the obs layer.
func (d *Debugger) Execute(line string) error {
	if d.closed {
		return fmt.Errorf("debug session is closed")
	}
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	cmd, rest := splitCommand(line)

	var start int64
	if dispatchTick.Add(1)%dispatchSampleEvery == 0 {
		start = obs.NowNanos()
	}
	var err error
	var counter *obs.Counter
	if c, ok := commands[cmd]; ok {
		counter = c.counter
		err = c.run(d, rest)
	} else if m, ok := d.macros[cmd]; ok {
		counter = cmdMacro
		args := d.splitArgsReuse(rest)
		err = d.runMacro(m, args)
		d.putStrArgs(args)
	} else {
		counter = cmdUnknown
		err = fmt.Errorf("undefined command: %q", cmd)
	}
	dbgLatency.SinceNS(start)
	dbgCommands.Inc()
	counter.Inc()
	if err != nil {
		dbgErrors.Inc()
	}
	return err
}

// getStrArgs pops a recycled string slice (length 0) off the freelist.
func (d *Debugger) getStrArgs() []string {
	if n := len(d.strFree); n > 0 {
		a := d.strFree[n-1]
		d.strFree = d.strFree[:n-1]
		return a
	}
	return nil
}

// splitArgsReuse is splitArgs into a recycled slice. Macro dispatch is
// the per-command hot path; macros nest (a body line may invoke another
// macro), so recycled slices live on a freelist, not a single slot.
func (d *Debugger) splitArgsReuse(s string) []string {
	return appendSplitArgs(d.getStrArgs(), s)
}

// putStrArgs returns a macro-argument slice to the freelist, dropping
// the string references it held.
func (d *Debugger) putStrArgs(args []string) {
	for i := range args {
		args[i] = ""
	}
	d.strFree = append(d.strFree, args[:0])
}

// getBuf / putBuf recycle byte scratch buffers (macro substitution).
func (d *Debugger) getBuf() []byte {
	if n := len(d.bufFree); n > 0 {
		b := d.bufFree[n-1]
		d.bufFree = d.bufFree[:n-1]
		return b
	}
	return nil
}

func (d *Debugger) putBuf(b []byte) {
	d.bufFree = append(d.bufFree, b[:0])
}

// ExecuteScript runs commands one per line, stopping at the first error.
func (d *Debugger) ExecuteScript(script string) error {
	for _, line := range strings.Split(script, "\n") {
		if err := d.Execute(line); err != nil {
			return fmt.Errorf("command %q: %w", strings.TrimSpace(line), err)
		}
	}
	return nil
}

func splitCommand(line string) (string, string) {
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i], strings.TrimSpace(line[i+1:])
	}
	return line, ""
}

// splitArgs splits macro arguments on whitespace, honouring quotes.
func splitArgs(s string) []string {
	return appendSplitArgs(nil, s)
}

// appendSplitArgs appends the whitespace-split, quote-honouring arguments
// of s onto args.
func appendSplitArgs(args []string, s string) []string {
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		if s[i] == '"' {
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			args = append(args, s[i+1:min(j, len(s))])
			i = j + 1
			continue
		}
		j := i
		for j < len(s) && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		args = append(args, s[i:j])
		i = j
	}
	return args
}

func (d *Debugger) cmdBreak(spec string) error {
	bp, err := d.SetBreakpoint(spec)
	if err != nil {
		return err
	}
	s := bp.Sites[0]
	// Rendered append-style rather than with printf: an xbreak expansion
	// runs one break per generated line, and each %d boxes its int.
	b := d.getBuf()
	b = append(b, "Breakpoint "...)
	b = strconv.AppendInt(b, int64(bp.ID), 10)
	b = append(b, " at "...)
	b = append(b, d.proc.Info.File...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(s.Line), 10)
	b = append(b, " (in "...)
	b = append(b, s.Func...)
	b = append(b, ')')
	if len(bp.Sites) > 1 {
		b = append(b, " ["...)
		b = strconv.AppendInt(b, int64(len(bp.Sites)), 10)
		b = append(b, " locations]"...)
	}
	b = append(b, '\n')
	_, _ = d.out.Write(b)
	d.putBuf(b)
	return nil
}

func (d *Debugger) cmdDelete(rest string) error {
	if rest == "" {
		for i, bp := range d.bps {
			d.putBP(bp)
			d.bps[i] = nil
		}
		d.bps = d.bps[:0]
		d.printf("Deleted all breakpoints.\n")
		return nil
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		return fmt.Errorf("bad breakpoint number %q", rest)
	}
	if err := d.DeleteBreakpoint(id); err != nil {
		return err
	}
	d.printf("Deleted breakpoint %d.\n", id)
	return nil
}

// cmdClear implements GDB's clear: delete breakpoints by source location
// rather than by number. D2X's xdel relies on it, since the debuggee
// cannot know which breakpoint numbers the debugger assigned.
func (d *Debugger) cmdClear(spec string) error {
	sites, err := d.resolveSpec(spec)
	if err != nil {
		return err
	}
	// Filter d.bps in place: site lists are a few entries, so a nested
	// scan beats building a lookup map, and the compaction reuses the
	// slice's backing array. If nothing matches, the compaction was the
	// identity and d.bps is untouched.
	old := d.bps
	kept := old[:0]
	deleted := 0
	for _, bp := range old {
		hit := false
		for _, s := range bp.Sites {
			for _, t := range sites {
				if s.Addr == t.Addr {
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
		if hit {
			deleted++
			// Append-rendered like cmdBreak: xdel clears one breakpoint
			// per generated line.
			b := d.getBuf()
			b = append(b, "Deleted breakpoint "...)
			b = strconv.AppendInt(b, int64(bp.ID), 10)
			b = append(b, '\n')
			_, _ = d.out.Write(b)
			d.putBuf(b)
			d.putBP(bp)
		} else {
			kept = append(kept, bp)
		}
	}
	if deleted == 0 {
		return fmt.Errorf("no breakpoint at %s", spec)
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = nil // release the compacted-away tail
	}
	d.bps = kept
	return nil
}

func (d *Debugger) cmdBacktrace() error {
	fs := d.frames()
	if len(fs) == 0 {
		return fmt.Errorf("no stack")
	}
	for i := range fs {
		d.printf("%s\n", d.describeFrame(i))
	}
	return nil
}

func (d *Debugger) cmdFrame(rest string) error {
	if rest != "" {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("bad frame number %q", rest)
		}
		if err := d.SelectFrame(n); err != nil {
			return err
		}
	}
	d.printf("%s\n", d.describeFrame(d.selFrame))
	d.printSourceLineAt(d.selFrame)
	return nil
}

func (d *Debugger) cmdUpDown(rest string, dir int) error {
	n := 1
	if rest != "" {
		var err error
		if n, err = strconv.Atoi(rest); err != nil {
			return fmt.Errorf("bad count %q", rest)
		}
	}
	if err := d.SelectFrame(d.selFrame + dir*n); err != nil {
		return err
	}
	d.printf("%s\n", d.describeFrame(d.selFrame))
	d.printSourceLineAt(d.selFrame)
	return nil
}

func (d *Debugger) cmdList(rest string) error {
	center := 0
	if rest != "" {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("bad line number %q", rest)
		}
		center = n
	} else {
		_, line, ok := d.lineAt(d.selFrame)
		if !ok {
			return fmt.Errorf("no source location")
		}
		center = line
	}
	prog := d.proc.VM.Prog
	lo := max(1, center-4)
	hi := min(strings.Count(prog.SourceText, "\n")+1, center+5)
	for n := lo; n <= hi; n++ {
		marker := " "
		if n == center {
			marker = ">"
		}
		d.printf("%s%-5d %s\n", marker, n, prog.SourceLine(n))
	}
	return nil
}

func (d *Debugger) cmdPrint(rest string) error {
	if rest == "" {
		return fmt.Errorf("print requires an expression")
	}
	v, err := d.EvalExpr(rest)
	if err != nil {
		return err
	}
	d.valueCounter++
	d.printf("$%d = %s\n", d.valueCounter, minic.FormatValue(v))
	return nil
}

func (d *Debugger) cmdCall(rest string) error {
	if rest == "" {
		return fmt.Errorf("call requires an expression")
	}
	v, err := d.EvalExpr(rest)
	if err != nil {
		return err
	}
	// GDB's call prints non-void results only.
	if v.Kind != minic.VNull {
		d.valueCounter++
		d.printf("$%d = %s\n", d.valueCounter, minic.FormatValue(v))
	}
	return nil
}

func (d *Debugger) cmdSet(rest string) error {
	if err := d.assign(strings.TrimPrefix(rest, "var ")); err != nil {
		return err
	}
	// A debugger-applied mutation is not part of the instruction history;
	// checkpointing here keeps replays that cross this stop faithful.
	if rec := d.ActiveRecorder(); rec != nil {
		rec.Checkpoint()
	}
	return nil
}

// cmdEval implements GDB's eval: format the string (arguments may call
// into the debuggee), then execute the result as commands. D2X's xbreak
// depends on this to let the debuggee drive breakpoint insertion.
func (d *Debugger) cmdEval(rest string) error {
	expanded, err := d.evalFormat(rest)
	if err != nil {
		return err
	}
	// Iterate lines in place rather than materialising a []string: the
	// expansion of a hot D2X command is a single line.
	for start := 0; start < len(expanded); {
		line := expanded[start:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
			start += nl + 1
		} else {
			start = len(expanded)
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if err := d.Execute(line); err != nil {
			return fmt.Errorf("eval-generated command %q: %w", line, err)
		}
	}
	return nil
}

func (d *Debugger) cmdThread(rest string) error {
	if rest == "" {
		t := d.SelectedThread()
		if t == nil {
			return fmt.Errorf("no threads")
		}
		d.printf("[Current thread is %d]\n", t.ID)
		return nil
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		return fmt.Errorf("bad thread id %q", rest)
	}
	if err := d.SelectThread(id); err != nil {
		return err
	}
	d.printf("[Switching to thread %d]\n", id)
	if d.frameCount() > 0 {
		d.printf("%s\n", d.describeFrame(0))
	}
	return nil
}

func (d *Debugger) cmdInfo(rest string) error {
	what, _ := splitCommand(rest)
	switch what {
	case "breakpoints", "break", "b":
		if len(d.bps) == 0 {
			d.printf("No breakpoints.\n")
			return nil
		}
		d.printf("Num  Enb  Hits  Where\n")
		for _, bp := range d.bps {
			enb := "y"
			if !bp.Enabled {
				enb = "n"
			}
			locs := make([]string, 0, len(bp.Sites))
			for _, s := range bp.Sites {
				locs = append(locs, fmt.Sprintf("%s at %s:%d", s.Func, d.proc.Info.File, s.Line))
			}
			d.printf("%-4d %-4s %-5d %s\n", bp.ID, enb, bp.Hits, strings.Join(locs, "; "))
		}
		return nil

	case "watchpoints":
		if len(d.watchpoints) == 0 {
			d.printf("No watchpoints.\n")
			return nil
		}
		for _, w := range d.watchpoints {
			d.printf("%-4d watch %s\n", w.ID, w.Expr)
		}
		return nil

	case "record":
		d.infoRecord()
		return nil

	case "display":
		d.showDisplays()
		return nil

	case "locals":
		return d.infoVars(false)
	case "args":
		return d.infoVars(true)

	case "threads":
		for _, t := range d.proc.VM.Threads() {
			cur := " "
			if t.ID == d.selThreadID {
				cur = "*"
			}
			loc := ""
			if top := t.Top(); top != nil {
				addr := dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC}
				if _, line, ok := d.proc.Info.LineFor(addr); ok {
					loc = fmt.Sprintf(" in %s at %s:%d", top.Fn.Name, d.proc.Info.File, line)
				}
			}
			d.printf("%s %-3d %-8s%s\n", cur, t.ID, t.State, loc)
		}
		return nil

	case "registers":
		rip, ok1 := d.RegisterRIP()
		rsp, ok2 := d.RegisterRSP()
		if !ok1 || !ok2 {
			return fmt.Errorf("no frame selected")
		}
		d.printf("rip  0x%012x\n", uint64(rip))
		d.printf("rsp  0x%012x\n", uint64(rsp))
		return nil

	case "functions":
		names := make([]string, 0, len(d.proc.Info.Funcs))
		for _, f := range d.proc.Info.Funcs {
			names = append(names, f.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			d.printf("%s\n", n)
		}
		return nil
	}
	return fmt.Errorf("undefined info command: %q", what)
}

func (d *Debugger) infoVars(params bool) error {
	f := d.SelectedFrame()
	if f == nil {
		return fmt.Errorf("no frame selected")
	}
	fi := d.proc.Info.FuncByIndex(f.FuncIndex)
	if fi == nil {
		return fmt.Errorf("no debug info for current function")
	}
	printed := 0
	for _, v := range fi.Vars {
		cell := f.Slot(v.Slot)
		if v.Param != params || cell == nil {
			continue
		}
		d.printf("%s = %s\n", v.Name, minic.FormatValue(cell.V))
		printed++
	}
	if printed == 0 {
		if params {
			d.printf("No arguments.\n")
		} else {
			d.printf("No locals.\n")
		}
	}
	return nil
}

// describeFrame renders one backtrace row in GDB's format:
//
//	#0  power_15 (arg0=3) at power_test.c:11
//	#1  0x000100000019 in main () at power_test.c:25
func (d *Debugger) describeFrame(n int) string {
	fs := d.frames()
	if n < 0 || n >= len(fs) {
		return fmt.Sprintf("#%d  <no frame>", n)
	}
	f := fs[n]
	var b strings.Builder
	fmt.Fprintf(&b, "#%d  ", n)
	if n > 0 {
		if a, ok := d.FrameAddr(n); ok {
			fmt.Fprintf(&b, "0x%012x in ", uint64(uint32(a.PC))|uint64(a.FuncIndex)<<32)
		}
	}
	fmt.Fprintf(&b, "%s (%s)", f.Fn.Name, d.frameArgs(f))
	if file, line, ok := d.lineAt(n); ok {
		fmt.Fprintf(&b, " at %s:%d", file, line)
	}
	return b.String()
}

func (d *Debugger) frameArgs(f *minic.Frame) string {
	fi := d.proc.Info.FuncByIndex(f.FuncIndex)
	if fi == nil {
		return ""
	}
	var parts []string
	for _, v := range fi.Vars {
		if cell := f.Slot(v.Slot); v.Param && cell != nil {
			parts = append(parts, fmt.Sprintf("%s=%s", v.Name, minic.FormatValue(cell.V)))
		}
	}
	return strings.Join(parts, ", ")
}

func (d *Debugger) printSourceLineAt(frameNo int) {
	_, line, ok := d.lineAt(frameNo)
	if !ok {
		return
	}
	text := d.proc.VM.Prog.SourceLine(line)
	d.printf("%d\t%s\n", line, strings.TrimRight(text, " \t"))
}

// reportStop prints the GDB-style banner for a stop.
func (d *Debugger) reportStop(stop Stop) {
	switch stop.Reason {
	case StopBreakpoint:
		d.printf("Breakpoint %d, %s\n", stop.Breakpoint.ID, strings.TrimPrefix(d.describeFrame(0), "#0  "))
		d.printSourceLineAt(0)
		d.showDisplays()
	case StopWatchpoint:
		d.printf("Watchpoint %d: %s\n", stop.Watch.ID, stop.Watch.Expr)
		d.printf("Old value = %s\n", minic.FormatValue(stop.WatchOld))
		d.printf("New value = %s\n", minic.FormatValue(stop.WatchNew))
		d.printf("%s\n", strings.TrimPrefix(d.describeFrame(0), "#0  "))
		d.printSourceLineAt(0)
		d.showDisplays()
	case StopStep:
		d.printf("%s\n", strings.TrimPrefix(d.describeFrame(0), "#0  "))
		d.printSourceLineAt(0)
		d.showDisplays()
	case StopFault:
		d.printf("Program received fault: %v\n", stop.Fault)
		if d.frameCount() > 0 {
			d.printf("%s\n", d.describeFrame(0))
			d.printSourceLineAt(0)
		}
	case StopExited:
		d.printf("[Program exited]\n")
	}
}
