package minic

import (
	"fmt"
	"strings"
)

// Disassemble renders a function's bytecode with line annotations — the
// debugger's `disas` command output. The format intentionally resembles
// objdump interleaved with source lines:
//
//	power_15:  (2 params, 3 slots)
//	  ; line 2: int res_1 = 1;
//	     0  const     0 0
//	     1  storel    1 0
type Disassembler struct {
	prog *Program
}

// NewDisassembler returns a disassembler over a compiled program.
func NewDisassembler(prog *Program) *Disassembler { return &Disassembler{prog: prog} }

// Func renders the named function, or an error note when absent.
func (d *Disassembler) Func(name string) string {
	fi := d.prog.FuncIndex(name)
	if fi < 0 {
		return fmt.Sprintf("no function %q\n", name)
	}
	return d.FuncByIndex(fi)
}

// FuncByIndex renders function fi.
func (d *Disassembler) FuncByIndex(fi int) string {
	fd := d.prog.Funcs[fi]
	fc := d.prog.Code[fi]
	var b strings.Builder
	fmt.Fprintf(&b, "%s:  (%d params, %d slots)\n", fd.Name, len(fd.Params), fc.NumSlots)
	lastLine := -1
	for pc, in := range fc.Instrs {
		if in.Line != lastLine {
			src := strings.TrimSpace(d.prog.SourceLine(in.Line))
			fmt.Fprintf(&b, "  ; line %d: %s\n", in.Line, src)
			lastLine = in.Line
		}
		marker := " "
		if in.StmtStart {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s%4d  %-10s %s\n", marker, pc, in.Op, d.operands(fc, in))
	}
	return b.String()
}

// operands renders instruction operands symbolically where possible.
func (d *Disassembler) operands(fc *FuncCode, in Instr) string {
	switch in.Op {
	case OpConst:
		if in.A < len(fc.Consts) {
			return FormatValue(fc.Consts[in.A])
		}
	case OpLoadLocal, OpStoreLocal, OpAddrLocal, OpLoadCap, OpStoreCap, OpAddrCap:
		return fmt.Sprintf("slot %d", in.A)
	case OpLoadGlobal, OpStoreGlobal, OpAddrGlobal:
		if in.A < len(d.prog.Globals) {
			return d.prog.Globals[in.A].Name
		}
	case OpBin, OpUn:
		return Kind(in.A).String()
	case OpJmp, OpJmpFalse, OpJmpTrue:
		return fmt.Sprintf("-> %d", in.A)
	case OpCall:
		if in.A < len(d.prog.Funcs) {
			return fmt.Sprintf("%s (%d args)", d.prog.Funcs[in.A].Name, in.B)
		}
	case OpCallNative:
		if in.A < d.prog.Natives.Len() {
			return fmt.Sprintf("%s (%d args)", d.prog.Natives.At(in.A).Name, in.B)
		}
	case OpFieldLoad, OpFieldAddr:
		return fmt.Sprintf("field %d", in.A)
	case OpNewArr:
		if in.A < len(fc.Types) {
			return fc.Types[in.A].String()
		}
	case OpNewStruct:
		if in.A < len(fc.StructRefs) {
			return fc.StructRefs[in.A].Name
		}
	case OpParFor:
		if in.A < len(fc.ParFors) {
			pf := fc.ParFors[in.A]
			return fmt.Sprintf("%s captures %v", d.prog.Funcs[pf.Helper].Name, pf.Captured)
		}
	}
	if in.A == 0 && in.B == 0 {
		return ""
	}
	return fmt.Sprintf("%d %d", in.A, in.B)
}
