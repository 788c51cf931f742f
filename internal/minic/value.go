package minic

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// ValueKind discriminates runtime values.
type ValueKind int

const (
	VNull ValueKind = iota
	VInt
	VFloat
	VBool
	VStr
	VPtr    // pointer to a Cell
	VArr    // reference to an ArrayObj
	VStruct // reference to a StructObj (what struct pointers hold)
)

func (k ValueKind) String() string {
	switch k {
	case VNull:
		return "null"
	case VInt:
		return "int"
	case VFloat:
		return "float"
	case VBool:
		return "bool"
	case VStr:
		return "string"
	case VPtr:
		return "pointer"
	case VArr:
		return "array"
	case VStruct:
		return "struct"
	}
	return fmt.Sprintf("ValueKind(%d)", int(k))
}

// Value is one mini-C runtime value. The VM is dynamically typed
// underneath; the checker guarantees kind agreement for checked programs.
//
// A Value is three words. I holds an int, a bool (0 or 1), a float's
// bits or a string's length; ref holds a string's bytes, a *Cell, an
// *ArrayObj or a *StructObj, and Kind alone says which. The accessors
// read the payload of their own kind and the zero value of any other
// kind, so a reader never sees a float's bits or a string's length
// through them. I is read directly only where the kind is int or bool.
// Two Values holding equal strings may hold different ref pointers:
// compare Values with ValuesEqual (or FormatValue), never with ==.
type Value struct {
	Kind ValueKind
	I    int64
	ref  unsafe.Pointer
}

// Convenience constructors.
//
//d2x:noalloc
func IntVal(v int64) Value { return Value{Kind: VInt, I: v} }

func FloatVal(v float64) Value { return Value{Kind: VFloat, I: int64(math.Float64bits(v))} }

//d2x:noalloc
func BoolVal(v bool) Value { return Value{Kind: VBool, I: b2i(v)} }

func StrVal(v string) Value {
	return Value{Kind: VStr, I: int64(len(v)), ref: unsafe.Pointer(unsafe.StringData(v))}
}

func NullVal() Value { return Value{Kind: VNull} }

//d2x:noalloc
func PtrVal(c *Cell) Value { return Value{Kind: VPtr, ref: unsafe.Pointer(c)} }

func ArrVal(a *ArrayObj) Value     { return Value{Kind: VArr, ref: unsafe.Pointer(a)} }
func StructVal(s *StructObj) Value { return Value{Kind: VStruct, ref: unsafe.Pointer(s)} }

//d2x:noalloc
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// F returns a VFloat's value, and 0 for any other kind.
func (v Value) F() float64 {
	if v.Kind != VFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// S returns a VStr's string, and "" for any other kind.
func (v Value) S() string {
	if v.Kind != VStr {
		return ""
	}
	return unsafe.String((*byte)(v.ref), int(v.I))
}

// Ptr returns a VPtr's cell, and nil for any other kind.
//
//d2x:noalloc
func (v Value) Ptr() *Cell {
	if v.Kind != VPtr {
		return nil
	}
	return (*Cell)(v.ref)
}

// Arr returns a VArr's array, and nil for any other kind.
//
//d2x:noalloc
func (v Value) Arr() *ArrayObj {
	if v.Kind != VArr {
		return nil
	}
	return (*ArrayObj)(v.ref)
}

// Struct returns a VStruct's object, and nil for any other kind.
//
//d2x:noalloc
func (v Value) Struct() *StructObj {
	if v.Kind != VStruct {
		return nil
	}
	return (*StructObj)(v.ref)
}

// Bool returns the boolean interpretation of a value: a nonzero bool or
// int is true, and every other kind is false.
//
//d2x:noalloc
func (v Value) Bool() bool { return v.I != 0 && (v.Kind == VBool || v.Kind == VInt) }

// IsNull reports whether the value is the null reference.
func (v Value) IsNull() bool { return v.Kind == VNull }

// AsFloat widens ints to float; used by mixed-mode arithmetic.
func (v Value) AsFloat() float64 {
	if v.Kind == VInt {
		return float64(v.I)
	}
	return v.F()
}

// Cell is one storage location: a local slot, a global, an array element,
// or a struct field. Pointers reference cells, so the debugger and D2X's
// find_stack_var hand out *Cell-backed pointers into live frames.
type Cell struct {
	V Value
}

// ArrayObj is a heap-allocated dynamic array.
type ArrayObj struct {
	Elem  *Type
	Cells []Cell
}

// NewArray allocates a zero-initialised array of n elements of type elem.
func NewArray(elem *Type, n int) *ArrayObj {
	a := &ArrayObj{Elem: elem, Cells: make([]Cell, n)}
	zero := ZeroValue(elem)
	for i := range a.Cells {
		a.Cells[i].V = zero
	}
	return a
}

// Len returns the number of elements.
func (a *ArrayObj) Len() int { return len(a.Cells) }

// StructObj is a heap-allocated struct instance.
type StructObj struct {
	Def    *StructDef
	Fields []Cell
}

// NewStruct allocates a zero-initialised instance of def.
func NewStruct(def *StructDef) *StructObj {
	s := &StructObj{Def: def, Fields: make([]Cell, len(def.Fields))}
	for i, f := range def.Fields {
		s.Fields[i].V = ZeroValue(f.Type)
	}
	return s
}

// ZeroValue returns the zero value of a static type.
func ZeroValue(t *Type) Value {
	if t == nil {
		return NullVal()
	}
	switch t.Kind {
	case TInt:
		return IntVal(0)
	case TFloat:
		return FloatVal(0)
	case TBool:
		return BoolVal(false)
	case TString:
		return StrVal("")
	default:
		return NullVal()
	}
}

// FormatValue renders a value the way the debugger's print command would:
// scalars verbatim, strings quoted, arrays as bracketed element lists
// (truncated), structs as {field = value, ...}.
func FormatValue(v Value) string {
	return formatValue(v, 0)
}

const maxFormatDepth = 3
const maxFormatElems = 32

func formatValue(v Value, depth int) string {
	switch v.Kind {
	case VNull:
		return "null"
	case VInt:
		return strconv.FormatInt(v.I, 10)
	case VFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case VBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case VStr:
		return strconv.Quote(v.S())
	case VPtr:
		p := v.Ptr()
		if p == nil {
			return "null"
		}
		if depth >= maxFormatDepth {
			return "&..."
		}
		return "&" + formatValue(p.V, depth+1)
	case VArr:
		a := v.Arr()
		if a == nil {
			return "null"
		}
		if depth >= maxFormatDepth {
			return "[...]"
		}
		var b strings.Builder
		b.WriteByte('[')
		for i := range a.Cells {
			if i >= maxFormatElems {
				fmt.Fprintf(&b, ", ... (%d total)", len(a.Cells))
				break
			}
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(formatValue(a.Cells[i].V, depth+1))
		}
		b.WriteByte(']')
		return b.String()
	case VStruct:
		s := v.Struct()
		if s == nil {
			return "null"
		}
		if depth >= maxFormatDepth {
			return "{...}"
		}
		var b strings.Builder
		b.WriteByte('{')
		for i, f := range s.Def.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s", f.Name, formatValue(s.Fields[i].V, depth+1))
		}
		b.WriteByte('}')
		return b.String()
	}
	return "<invalid>"
}

// ToStr converts a value to its unquoted string form, as the to_str
// builtin and printf's %v verb do.
func ToStr(v Value) string {
	if v.Kind == VStr {
		return v.S()
	}
	return FormatValue(v)
}

// ValuesEqual implements == for the subset of comparisons the checker
// admits.
func ValuesEqual(a, b Value) bool {
	switch {
	case a.Kind == VInt && b.Kind == VInt:
		return a.I == b.I
	case a.Kind == VFloat || b.Kind == VFloat:
		if (a.Kind == VFloat || a.Kind == VInt) && (b.Kind == VFloat || b.Kind == VInt) {
			return a.AsFloat() == b.AsFloat()
		}
	case a.Kind == VBool && b.Kind == VBool:
		return a.I == b.I
	case a.Kind == VStr && b.Kind == VStr:
		return a.S() == b.S()
	}
	if a.IsNull() || b.IsNull() {
		return refIsNil(a) && refIsNil(b)
	}
	if a.Kind == b.Kind && (a.Kind == VPtr || a.Kind == VArr || a.Kind == VStruct) {
		return a.ref == b.ref
	}
	return false
}

func refIsNil(v Value) bool {
	switch v.Kind {
	case VNull:
		return true
	case VPtr, VArr, VStruct:
		return v.ref == nil
	}
	return false
}
