package minic

import "fmt"

// OpCode enumerates the VM's instructions. The VM is a stack machine; each
// frame has its own operand stack. Instructions carry the source line of
// the generated program they came from, which is exactly the information a
// native compiler would put into DWARF line tables.
type OpCode int

const (
	OpNop         OpCode = iota
	OpConst              // push Consts[A]
	OpLoadLocal          // push slot A
	OpStoreLocal         // pop -> slot A
	OpAddrLocal          // push pointer to slot A
	OpLoadGlobal         // push global A
	OpStoreGlobal        // pop -> global A
	OpAddrGlobal         // push pointer to global A
	OpLoadInd            // pop ptr; push *ptr
	OpStoreInd           // pop value, pop ptr; *ptr = value
	OpIndexLoad          // pop idx, pop arr; push arr[idx]
	OpIndexAddr          // pop idx, pop arr; push &arr[idx]
	OpFieldLoad          // pop struct; push field A
	OpFieldAddr          // pop struct; push &field A
	OpBin                // pop y, x; push x (Kind A) y
	OpUn                 // pop x; push (Kind A) x
	OpJmp                // pc = A
	OpJmpFalse           // pop bool; if false pc = A
	OpJmpTrue            // pop bool; if true pc = A
	OpCall               // call Funcs[A] with B args popped from stack
	OpCallNative         // call Natives[A] with B args
	OpRet                // return void
	OpRetVal             // pop result; return it
	OpPop                // pop and discard
	OpDup                // duplicate top of stack
	OpNewArr             // pop count; push new array of Types[A]
	OpNewStruct          // push new struct StructRefs[A]
	OpCastInt            // pop; push int conversion
	OpCastFloat          // pop; push float conversion
	OpCastBool           // pop; push bool conversion
	OpParFor             // pop hi, lo; run ParFors[A] across logical threads
	OpLoadCap            // push captured slot A of a parallel_for helper
	OpStoreCap           // pop -> captured slot A
	OpAddrCap            // push pointer to captured slot A
	numOps
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpLoadLocal: "loadl", OpStoreLocal: "storel",
	OpAddrLocal: "addrl", OpLoadGlobal: "loadg", OpStoreGlobal: "storeg",
	OpAddrGlobal: "addrg", OpLoadInd: "loadind", OpStoreInd: "storeind",
	OpIndexLoad: "index", OpIndexAddr: "indexaddr", OpFieldLoad: "field",
	OpFieldAddr: "fieldaddr", OpBin: "bin", OpUn: "un", OpJmp: "jmp",
	OpJmpFalse: "jmpf", OpJmpTrue: "jmpt", OpCall: "call",
	OpCallNative: "callnat", OpRet: "ret", OpRetVal: "retval", OpPop: "pop",
	OpDup: "dup", OpNewArr: "newarr", OpNewStruct: "newstruct",
	OpCastInt: "casti", OpCastFloat: "castf", OpCastBool: "castb",
	OpParFor: "parfor", OpLoadCap: "loadc", OpStoreCap: "storec",
	OpAddrCap: "addrc",
}

func (o OpCode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// opPops is the number of operands each opcode pops; OpCall and
// OpCallNative pop their argument count B instead. The compiler records
// it in each instruction (popsOf), which the VM checks before touching
// the stack and the compiler's stack-depth analysis reads with opPushes.
var opPops = [numOps]int{
	OpStoreLocal: 1, OpStoreGlobal: 1, OpLoadInd: 1, OpStoreInd: 2,
	OpIndexLoad: 2, OpIndexAddr: 2, OpFieldLoad: 1, OpFieldAddr: 1,
	OpBin: 2, OpUn: 1, OpJmpFalse: 1, OpJmpTrue: 1, OpRetVal: 1, OpPop: 1,
	OpDup: 1, OpNewArr: 1, OpCastInt: 1, OpCastFloat: 1, OpCastBool: 1,
	OpParFor: 2, OpStoreCap: 1,
}

// opPushes is the number of values each opcode pushes; calls push one
// only when the callee returns a value (see maxStack).
var opPushes = [numOps]int{
	OpConst: 1, OpLoadLocal: 1, OpAddrLocal: 1, OpLoadGlobal: 1,
	OpAddrGlobal: 1, OpLoadInd: 1, OpIndexLoad: 1, OpIndexAddr: 1,
	OpFieldLoad: 1, OpFieldAddr: 1, OpBin: 1, OpUn: 1, OpDup: 2,
	OpNewArr: 1, OpNewStruct: 1, OpCastInt: 1, OpCastFloat: 1,
	OpCastBool: 1, OpLoadCap: 1, OpAddrCap: 1,
}

// popsOf returns how many operands an instruction with opcode op and
// operand b takes off the stack.
func popsOf(op OpCode, b int) int {
	if op == OpCall || op == OpCallNative {
		return b
	}
	if uint(op) < uint(len(opPops)) {
		return opPops[op]
	}
	return 0
}

// Instr is one VM instruction.
type Instr struct {
	Op        OpCode
	A, B      int
	Line      int  // 1-based line in the generated source file
	StmtStart bool // true when this instruction begins a source statement
	// pops is popsOf(Op, B), which the compiler fills so that the run
	// loop's operand-depth check is one load.
	pops int32
}

func (in Instr) String() string {
	s := fmt.Sprintf("%-9s %d %d", in.Op, in.A, in.B)
	if in.StmtStart {
		s += "  ; stmt"
	}
	return fmt.Sprintf("%s @%d", s, in.Line)
}

// ParForInfo describes one parallel_for site: the helper function compiled
// from the loop body and which enclosing slots it captures by reference.
type ParForInfo struct {
	Helper   int   // Program.Funcs index
	Captured []int // enclosing frame slots shared with the helper frame
}

// FuncCode is the compiled body of one function.
type FuncCode struct {
	Name       string
	Instrs     []Instr
	Consts     []Value
	Types      []*Type      // referenced by OpNewArr
	StructRefs []*StructDef // referenced by OpNewStruct
	ParFors    []ParForInfo
	NumSlots   int
	NumParams  int
	// Base is the program-wide index of the function's first instruction:
	// instruction pc of the function is instruction Base+pc of the
	// program (see Program.FuncAt).
	Base int
	// MaxStack is the deepest the operand stack gets on any path through
	// the function, computed at compile time. Each frame's stack is
	// allocated once at this capacity, so pushes never grow it.
	MaxStack int
	// reuseFrames marks a function whose slots nothing can reach once a
	// frame returns: no OpAddrLocal and no OpParFor. The VM recycles such
	// a function's returned frames; a parallel_for worker whose helper
	// has it set runs each next index of its range in the same frame.
	reuseFrames bool
}

// LineOf returns the source line of the instruction at pc, or 0.
func (fc *FuncCode) LineOf(pc int) int {
	if pc < 0 || pc >= len(fc.Instrs) {
		return 0
	}
	return fc.Instrs[pc].Line
}

// StmtPCs returns the program counters of every statement-start instruction
// on the given source line. Breakpoints bind to these.
func (fc *FuncCode) StmtPCs(line int) []int {
	var pcs []int
	for pc, in := range fc.Instrs {
		if in.StmtStart && in.Line == line {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}
