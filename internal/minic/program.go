package minic

import (
	"fmt"
	"sort"
	"strings"
)

// Program is a fully checked and compiled mini-C program, ready to run on
// the VM. It is the analogue of the executable the DSL compilers in the
// paper produce: the debugger and the D2X runtime only ever see a Program
// plus its (separately encoded) debug information.
type Program struct {
	SourceName string
	SourceText string

	Structs      map[string]*StructDef
	Funcs        []*FuncDecl
	FuncByName   map[string]int
	Globals      []*GlobalDecl
	GlobalByName map[string]int
	Natives      *Natives

	Code []*FuncCode // parallel to Funcs
}

// FuncIndex returns the index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	if i, ok := p.FuncByName[name]; ok {
		return i
	}
	return -1
}

// FuncAt returns the function holding the program-wide instruction
// index ip (FuncCode.Base plus a pc) and that pc, or -1 and 0 when no
// function does.
func (p *Program) FuncAt(ip int) (fnIdx, pc int) {
	i := sort.Search(len(p.Code), func(i int) bool { return p.Code[i].Base > ip }) - 1
	if i < 0 || ip-p.Code[i].Base >= len(p.Code[i].Instrs) {
		return -1, 0
	}
	return i, ip - p.Code[i].Base
}

// SourceLines returns the program text split into lines (1-based access via
// SourceLine).
func (p *Program) SourceLines() []string {
	return strings.Split(p.SourceText, "\n")
}

// SourceLine returns the 1-based line of the generated source, or "" when
// out of range. The debugger reads generated source through it at every
// stop and in `list`, so it scans SourceText in place and returns a
// substring of it, without allocating.
//
//d2x:noalloc
func (p *Program) SourceLine(n int) string {
	if n < 1 {
		return ""
	}
	text := p.SourceText
	for ; n > 1; n-- {
		i := strings.IndexByte(text, '\n')
		if i < 0 {
			return ""
		}
		text = text[i+1:]
	}
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i]
	}
	return text
}

// NativeHandler is the Go implementation of a native (host-linked)
// function. It is the analogue of a C++ library linked into the generated
// executable: the D2X runtime library registers its command_x* entry points
// through this mechanism. Handlers run synchronously on the calling thread.
type NativeHandler func(call *NativeCall) (Value, error)

// NativeCall carries the arguments and VM context of one native invocation.
//
// A handler must not keep the call or its Args after it returns: the VM
// recycles the NativeCall for the next native call, and Args is a window
// on the caller's operand stack that the next instruction overwrites.
// Copying a Value out of Args is enough to keep it.
type NativeCall struct {
	VM     *VM
	Thread *Thread
	Args   []Value
}

// Native describes one registered native function.
type Native struct {
	Name    string
	Sig     Signature
	Handler NativeHandler

	// AnyResult marks natives whose static result type is adopted from the
	// assignment context (the mini-C analogue of returning void*).
	AnyResult bool
	// Variadic allows any extra arguments after Sig.Params.
	Variadic bool
	// WritesMemory declares that the handler may mutate program-visible
	// memory (globals, or memory reached through pointer arguments).
	// The effects analysis treats this flag as ground truth for native
	// writes, and the VM's guarded-call write barrier blocks calls to
	// natives that set it.
	WritesMemory bool
}

// pushesResult reports whether a call to the native leaves a result on
// the caller's operand stack.
func (n *Native) pushesResult() bool {
	return n.AnyResult || n.Sig.Result != nil && n.Sig.Result.Kind != TVoid
}

// Natives is a registry of native functions available to a program. A
// registry is provided at compile time (for signature checking) and shared
// with the VM at run time (for dispatch).
type Natives struct {
	list   []*Native
	byName map[string]int
}

// NewNatives returns a registry pre-populated with the core builtins that
// generated code relies on (printf, to_str, len, atomic operations, ...).
func NewNatives() *Natives {
	n := &Natives{byName: map[string]int{}}
	registerCoreBuiltins(n)
	return n
}

// Register adds a native function. Registering a duplicate name panics:
// this indicates a build-system bug, exactly like a duplicate symbol at
// link time.
func (n *Natives) Register(nat *Native) {
	if _, dup := n.byName[nat.Name]; dup {
		panic(fmt.Sprintf("minic: duplicate native %q", nat.Name))
	}
	n.byName[nat.Name] = len(n.list)
	n.list = append(n.list, nat)
}

// Lookup returns the native with the given name and its index.
func (n *Natives) Lookup(name string) (*Native, int, bool) {
	i, ok := n.byName[name]
	if !ok {
		return nil, -1, false
	}
	return n.list[i], i, true
}

// Names returns all registered native names, sorted.
func (n *Natives) Names() []string {
	out := make([]string, 0, len(n.list))
	for _, nat := range n.list {
		out = append(out, nat.Name)
	}
	sort.Strings(out)
	return out
}

// At returns the native at index i.
func (n *Natives) At(i int) *Native { return n.list[i] }

// Len returns the number of registered natives.
func (n *Natives) Len() int { return len(n.list) }

// Compile parses, checks, and compiles mini-C source into a runnable
// Program. natives may be nil, in which case only the core builtins are
// available.
func Compile(filename, src string, natives *Natives) (*Program, error) {
	if natives == nil {
		natives = NewNatives()
	}
	file, err := Parse(filename, src)
	if err != nil {
		return nil, err
	}
	prog, err := Check(file, natives)
	if err != nil {
		return nil, err
	}
	if err := CompileCode(prog); err != nil {
		return nil, err
	}
	prog.SourceText = src
	return prog, nil
}
