// Package macros holds the D2X helper macros (paper §3.3): the small,
// DSL-independent command definitions that let users type `xbt` instead of
// `call d2x_runtime::command_xbt($rip, $rsp)`. They are written once per
// debugger; Table 3 accounts them at 40 lines. The definitions use only
// the debugger's stock features: call/eval plus the process-record
// reverse commands (stock since GDB 7.0), which reverse-xbt composes
// into DSL-level time travel.
package macros

import "d2x/internal/debugger"

// GDBInit is the macro file for the GDB-style debugger in this repository.
// The command names and shapes match the paper's Table 2 exactly.
const GDBInit = `# D2X helper macros — written once per debugger, shared by every DSL.
define xbt
  call d2x_runtime::command_xbt($rip, $rsp)
end
define xframe
  call d2x_runtime::command_xframe($rip, $rsp, "$arg0")
end
define xlist
  call d2x_runtime::command_xlist($rip, $rsp)
end
define xvars
  call d2x_runtime::command_xvars($rip, $rsp, "$arg0")
end
define xbreak
  eval "%s", d2x_runtime::command_xbreak($rip, "$arg0")
end
define xdel
  eval "%s", d2x_runtime::command_xdel("$arg0")
end
define reverse-xbt
  reverse-step
  call d2x_runtime::command_xbt($rip, $rsp)
end
`

// Install loads the D2X macros into a debugger session, the equivalent of
// sourcing a GDB macro file; GDBInit is that file's text.
func Install(d *debugger.Debugger) error {
	return d.LoadMacros(GDBInit)
}
