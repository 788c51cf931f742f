package minic

import (
	"fmt"
	"math"
	"strings"
)

// registerCoreBuiltins installs the natives every generated program may
// assume, the analogue of libc plus a few parallel-runtime helpers. The
// atomic_* operations execute inside a single native call and therefore a
// single scheduler step, which is what makes them atomic with respect to
// the VM's instruction-interleaved logical threads — while a plain `+=`
// compiles to several instructions and can race, exactly like the
// atomicAdd vs += distinction in GraphIt's push vs pull code (paper Fig 2).
func registerCoreBuiltins(n *Natives) {
	n.Register(&Native{
		Name:     "printf",
		Sig:      Signature{Params: []*Type{StringType}, Result: VoidType},
		Variadic: true,
		Handler: func(call *NativeCall) (Value, error) {
			out, err := FormatPrintf(call.Args[0].S(), call.Args[1:])
			if err != nil {
				return NullVal(), err
			}
			fmt.Fprint(call.VM.Output, out)
			return NullVal(), nil
		},
	})
	n.Register(&Native{
		Name: "to_str",
		Sig:  Signature{Params: []*Type{AnyType}, Result: StringType},
		Handler: func(call *NativeCall) (Value, error) {
			return StrVal(ToStr(call.Args[0])), nil
		},
	})
	n.Register(&Native{
		Name: "len",
		Sig:  Signature{Params: []*Type{AnyType}, Result: IntType},
		Handler: func(call *NativeCall) (Value, error) {
			a := call.Args[0].Arr()
			if a == nil {
				return NullVal(), fmt.Errorf("len of null array")
			}
			return IntVal(int64(a.Len())), nil
		},
	})
	n.Register(&Native{
		Name: "str_len",
		Sig:  Signature{Params: []*Type{StringType}, Result: IntType},
		Handler: func(call *NativeCall) (Value, error) {
			return IntVal(int64(len(call.Args[0].S()))), nil
		},
	})
	n.Register(&Native{
		Name:         "atomic_add",
		Sig:          Signature{Params: []*Type{AnyType, AnyType}, Result: VoidType},
		WritesMemory: true,
		Handler: func(call *NativeCall) (Value, error) {
			p, v := call.Args[0].Ptr(), call.Args[1]
			if p == nil {
				return NullVal(), fmt.Errorf("atomic_add on null pointer")
			}
			old := p.V
			if old.Kind == VFloat || v.Kind == VFloat {
				p.V = FloatVal(old.AsFloat() + v.AsFloat())
			} else {
				p.V = IntVal(old.I + v.I)
			}
			return NullVal(), nil
		},
	})
	n.Register(&Native{
		Name:         "atomic_min",
		Sig:          Signature{Params: []*Type{AnyType, AnyType}, Result: BoolType},
		WritesMemory: true,
		Handler: func(call *NativeCall) (Value, error) {
			p, v := call.Args[0].Ptr(), call.Args[1]
			if p == nil {
				return NullVal(), fmt.Errorf("atomic_min on null pointer")
			}
			old := p.V
			if old.Kind == VFloat || v.Kind == VFloat {
				if v.AsFloat() < old.AsFloat() {
					p.V = FloatVal(v.AsFloat())
					return BoolVal(true), nil
				}
				return BoolVal(false), nil
			}
			if v.I < old.I {
				p.V = v
				return BoolVal(true), nil
			}
			return BoolVal(false), nil
		},
	})
	n.Register(&Native{
		Name:         "cas",
		Sig:          Signature{Params: []*Type{AnyType, AnyType, AnyType}, Result: BoolType},
		WritesMemory: true,
		Handler: func(call *NativeCall) (Value, error) {
			p, expect, repl := call.Args[0].Ptr(), call.Args[1], call.Args[2]
			if p == nil {
				return NullVal(), fmt.Errorf("cas on null pointer")
			}
			if ValuesEqual(p.V, expect) {
				p.V = repl
				return BoolVal(true), nil
			}
			return BoolVal(false), nil
		},
	})
	n.Register(&Native{
		Name: "assert",
		Sig:  Signature{Params: []*Type{BoolType, StringType}, Result: VoidType},
		Handler: func(call *NativeCall) (Value, error) {
			if !call.Args[0].Bool() {
				return NullVal(), fmt.Errorf("assertion failed: %s", call.Args[1].S())
			}
			return NullVal(), nil
		},
	})
	n.Register(&Native{
		Name: "fabs",
		Sig:  Signature{Params: []*Type{FloatType}, Result: FloatType},
		Handler: func(call *NativeCall) (Value, error) {
			return FloatVal(math.Abs(call.Args[0].AsFloat())), nil
		},
	})
	n.Register(&Native{
		Name: "sqrt",
		Sig:  Signature{Params: []*Type{FloatType}, Result: FloatType},
		Handler: func(call *NativeCall) (Value, error) {
			return FloatVal(math.Sqrt(call.Args[0].AsFloat())), nil
		},
	})
	n.Register(&Native{
		Name: "min_int",
		Sig:  Signature{Params: []*Type{IntType, IntType}, Result: IntType},
		Handler: func(call *NativeCall) (Value, error) {
			return IntVal(min(call.Args[0].I, call.Args[1].I)), nil
		},
	})
	n.Register(&Native{
		Name: "max_int",
		Sig:  Signature{Params: []*Type{IntType, IntType}, Result: IntType},
		Handler: func(call *NativeCall) (Value, error) {
			return IntVal(max(call.Args[0].I, call.Args[1].I)), nil
		},
	})
	n.Register(&Native{
		Name: "thread_id",
		Sig:  Signature{Params: nil, Result: IntType},
		Handler: func(call *NativeCall) (Value, error) {
			return IntVal(int64(call.Thread.ID)), nil
		},
	})
	n.Register(&Native{
		Name: "num_workers",
		Sig:  Signature{Params: nil, Result: IntType},
		Handler: func(call *NativeCall) (Value, error) {
			return IntVal(int64(call.VM.NumWorkers)), nil
		},
	})
}

// FormatPrintf implements the mini-C printf verbs: %d (int), %f (float,
// default precision), %s (string), %v (any value, debugger formatting),
// %b (bool), and %% (literal percent). It is exported so the debugger can
// reuse it for its own format-string handling (the `eval` command).
func FormatPrintf(format string, args []Value) (string, error) {
	// A bare "%s" applied to one string is the identity. This is the
	// debugger's eval hot path — D2X's xbreak/xdel expand a string the
	// debuggee runtime already assembled — so skip the builder entirely.
	if format == "%s" && len(args) == 1 && args[0].Kind == VStr {
		return args[0].S(), nil
	}
	var b strings.Builder
	argi := 0
	nextArg := func() (Value, error) {
		if argi >= len(args) {
			return Value{}, fmt.Errorf("printf: too few arguments for format %q", format)
		}
		v := args[argi]
		argi++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			b.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			return "", fmt.Errorf("printf: trailing %% in format %q", format)
		}
		switch format[i] {
		case '%':
			b.WriteByte('%')
		case 'd':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			n := v.I
			if v.Kind == VFloat || v.Kind == VStr {
				n = 0 // I holds the bits or the length; %d reads them as 0
			}
			fmt.Fprintf(&b, "%d", n)
		case 'f':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%g", v.AsFloat())
		case 's':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			b.WriteString(v.S())
		case 'b':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%t", v.Bool())
		case 'v':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			b.WriteString(ToStr(v))
		default:
			return "", fmt.Errorf("printf: unknown verb %%%c", format[i])
		}
	}
	if argi != len(args) {
		return "", fmt.Errorf("printf: %d extra arguments for format %q", len(args)-argi, format)
	}
	return b.String(), nil
}
