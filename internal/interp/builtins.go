package interp

import (
	"io"
	"strconv"

	"cbi/internal/minic"
)

// callBuiltin dispatches the standard intrinsics and any host-provided
// ones from Config.Intrinsics.
func (vm *VM) callBuiltin(name string, args []Value, pos minic.Pos) (Value, error) {
	switch name {
	case "print":
		for _, a := range args {
			io.WriteString(vm.out, a.String())
		}
		return Value{}, nil
	case "printi":
		vm.out.Write(append(strconv.AppendInt(vm.digits[:0], args[0].Int(), 10), '\n'))
		return Value{}, nil
	case "alloc":
		n := int(args[0].I)
		if args[0].p != nil || n < 0 {
			return Value{}, &Trap{Kind: TrapBadProgram, Pos: pos, Msg: "alloc with bad size"}
		}
		return vm.alloc(n), nil
	case "free":
		if obj := args[0].Obj(); obj != nil {
			obj.Freed = true
		}
		return Value{}, nil
	case "streq":
		return boolVal(args[0].Kind() == KStr && args[1].Kind() == KStr && args[0].Str() == args[1].Str()), nil
	case "strlen":
		return IntVal(int64(len(args[0].Str()))), nil
	case "strget":
		s, i := args[0].Str(), int(args[1].Int())
		if args[0].Kind() != KStr || i < 0 || i >= len(s) {
			return Value{}, &Trap{Kind: TrapOutOfBounds, Pos: pos, Msg: "strget"}
		}
		return IntVal(int64(s[i])), nil
	case "rand":
		n := args[0].Int()
		if n <= 0 {
			return IntVal(0), nil
		}
		return IntVal(vm.Rand().Int63n(n)), nil
	case "abort":
		msg := ""
		if len(args) > 0 {
			msg = args[0].String()
		}
		return Value{}, &Trap{Kind: TrapAbort, Pos: pos, Msg: msg}
	case "assert":
		if !args[0].Truthy() {
			return Value{}, &Trap{Kind: TrapAssertFailed, Pos: pos}
		}
		return Value{}, nil
	case "min":
		if args[0].Int() < args[1].Int() {
			return args[0], nil
		}
		return args[1], nil
	case "max":
		if args[0].Int() > args[1].Int() {
			return args[0], nil
		}
		return args[1], nil
	}
	if fn, ok := vm.intr[name]; ok {
		return fn(vm, args)
	}
	return Value{}, &Trap{Kind: TrapBadProgram, Pos: pos, Msg: "unknown builtin " + name}
}

// Out exposes the VM's output writer to intrinsics.
func (vm *VM) Out() io.Writer { return vm.out }

// Alloc exposes heap allocation to intrinsics (e.g. a virtual readline
// returning a character buffer).
func (vm *VM) Alloc(n int) Value { return vm.alloc(n) }
