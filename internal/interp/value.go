// Package interp executes lowered MiniC programs. It is the "deployed
// machine" of the reproduction: it runs baseline, unconditionally
// instrumented, and sampled programs, maintains the next-sample countdown
// and the predicate counter vector, and models the memory behaviour the
// case studies need — in particular allocator slack, which makes buffer
// overruns only sometimes fatal ("C programs can get lucky", §3.3.3).
package interp

import (
	"fmt"
	"strconv"
	"strings"

	"cbi/internal/minic"
)

// Kind discriminates runtime values.
type Kind int

const (
	// KInt is a 64-bit integer (also the result of comparisons).
	KInt Kind = iota
	// KStr is an immutable host string.
	KStr
	// KNull is the null pointer.
	KNull
	// KPtr is a pointer into a heap object, with an element offset.
	KPtr
)

// Value is a runtime value: two words, an integer and a pointer whose
// target carries the kind (DESIGN §15.1).
//   - p == nil: an int, with I its value. The zero Value is IntVal(0).
//   - p == nullObj: null.
//   - p a string object (tag tagStr): a string, with p.s its contents.
//     The empty string is the shared emptyStr.
//   - any other p: a pointer to the heap object p, with I its element
//     offset.
//
// I is 0 for null and for strings, so two Values with the same p are
// equal exactly when their Is are. Read an integer operand through Int,
// which is 0 for every kind but int; I alone is a pointer's offset.
type Value struct {
	I int64
	p *Object
}

// Object is a heap allocation. Size is the logical (requested) extent;
// len(Data) is the physical capacity including allocator slack. Accesses
// beyond Size but within capacity succeed silently — the "lucky" overruns
// of §3.3.3 — while accesses beyond capacity trap.
//
// The zero Object is a live heap object: tag 0 is tagHeap. Null and
// string values point at objects of the other tags, which the guest can
// never index, free or reach through Obj.
type Object struct {
	ID    int64
	Data  []Value
	Size  int
	Freed bool
	tag   uint8  // tagHeap, tagStr or tagNull
	s     string // a string object's contents
}

// Object tags; the non-heap ones equal the Kind they stand for.
const (
	tagHeap = uint8(0)
	tagStr  = uint8(KStr)
	tagNull = uint8(KNull)
)

var (
	nullObj  = &Object{tag: tagNull}
	emptyStr = &Object{tag: tagStr}
)

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// StrVal makes a string value. A non-empty string costs one object.
func StrVal(s string) Value {
	if s == "" {
		return Value{p: emptyStr}
	}
	return Value{p: &Object{tag: tagStr, s: s}}
}

// NullVal makes the null pointer.
func NullVal() Value { return Value{p: nullObj} }

// PtrVal makes a pointer to the heap object obj (non-nil) at offset off.
func PtrVal(obj *Object, off int) Value { return Value{I: int64(off), p: obj} }

// Kind reports the value's kind.
func (v Value) Kind() Kind {
	switch {
	case v.p == nil:
		return KInt
	case v.p.tag == tagHeap:
		return KPtr
	}
	return Kind(v.p.tag)
}

// isPtr reports whether v points into a heap object.
func (v Value) isPtr() bool { return v.p != nil && v.p.tag == tagHeap }

// Int is v's integer value, and 0 for every other kind: the one way to
// read an operand that should be an int but is not checked to be.
func (v Value) Int() int64 {
	if v.p != nil {
		return 0
	}
	return v.I
}

// Str is a string value's contents, and "" for every other kind.
func (v Value) Str() string {
	if v.p != nil && v.p.tag == tagStr {
		return v.p.s
	}
	return ""
}

// Obj is the heap object a pointer points into, and nil for every other
// kind.
func (v Value) Obj() *Object {
	if v.isPtr() {
		return v.p
	}
	return nil
}

// Off is a pointer's element offset, and 0 for every other kind.
func (v Value) Off() int {
	if v.isPtr() {
		return int(v.I)
	}
	return 0
}

// Truthy reports C-style truthiness.
func (v Value) Truthy() bool {
	switch v.Kind() {
	case KInt:
		return v.I != 0
	case KStr:
		return v.p.s != ""
	case KPtr:
		return true
	}
	return false
}

// Sign classifies a value for the returns scheme (§3.2.1): negative,
// zero, or positive. Pointers are positive, null is zero.
func (v Value) Sign() int {
	switch v.Kind() {
	case KInt:
		return cmpInt(v.I, 0)
	case KPtr:
		return 1
	case KStr:
		if v.p.s != "" {
			return 1
		}
	}
	return 0
}

// Equal reports value equality (C ==): integers by value, pointers by
// object identity and offset, strings by contents, null equal to null
// and to no non-null pointer.
func (v Value) Equal(o Value) bool {
	if v.p == o.p {
		return v.I == o.I
	}
	switch vk, ok := v.Kind(), o.Kind(); {
	case vk == KStr && ok == KStr:
		return v.p.s == o.p.s
	case vk == KNull && ok == KInt:
		return o.I == 0
	case vk == KInt && ok == KNull:
		return v.I == 0
	}
	return false
}

// Less imposes the deterministic total order used for scalar comparisons:
// integers by value; null below every non-null pointer; pointers by
// allocation sequence then offset; strings lexicographically. Mixed
// int/pointer comparisons treat null/0 uniformly.
func (v Value) Less(o Value) bool {
	vk, ok := v.Kind(), o.Kind()
	switch {
	case vk == KInt && ok == KInt:
		return v.I < o.I
	case vk == KStr && ok == KStr:
		return v.p.s < o.p.s
	case vk == KNull:
		return ok == KPtr || (ok == KInt && o.I > 0)
	case ok == KNull:
		return vk == KInt && v.I < 0
	case vk == KPtr && ok == KPtr:
		if v.p != o.p {
			return v.p.ID < o.p.ID
		}
		return v.I < o.I
	}
	return false
}

// CmpUnordered is Cmp's result for value pairs the total order does not
// relate (e.g. a string against an integer): every ordering comparison on
// such a pair is false, matching the historical Less/Equal behaviour.
const CmpUnordered = 2

// Cmp compares two values in a single pass: -1, 0, or 1 when the pair is
// ordered under the deterministic total order of Less/Equal, CmpUnordered
// otherwise. It is the one comparison both engines dispatch <, <=, >, >=
// and the scalar-pairs probe through, replacing the old Less-then-Equal
// double walk.
func (v Value) Cmp(o Value) int {
	if v.p == nil && o.p == nil {
		return cmpInt(v.I, o.I)
	}
	vk, ok := v.Kind(), o.Kind()
	switch {
	case vk == KStr && ok == KStr:
		return strings.Compare(v.p.s, o.p.s)
	case vk == KPtr && ok == KPtr:
		if v.p != o.p {
			return cmpInt(v.p.ID, o.p.ID)
		}
		return cmpInt(v.I, o.I)
	case vk == KNull && ok == KNull:
		return 0
	case vk == KNull && ok == KInt:
		return cmpInt(0, o.I)
	case vk == KInt && ok == KNull:
		return cmpInt(v.I, 0)
	case vk == KNull && ok == KPtr:
		return -1
	case vk == KPtr && ok == KNull:
		return 1
	}
	return CmpUnordered
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String renders the value for diagnostics and print output.
func (v Value) String() string {
	switch v.Kind() {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KStr:
		return v.p.s
	case KNull:
		return "null"
	}
	return fmt.Sprintf("ptr#%d+%d", v.p.ID, v.I)
}

// ZeroFor returns the zero value of a declared type.
func ZeroFor(t *minic.Type) Value {
	if t == nil {
		return IntVal(0)
	}
	switch t.Kind {
	case minic.TypePtr, minic.TypeStruct:
		return NullVal()
	case minic.TypeStr:
		return StrVal("")
	default:
		return IntVal(0)
	}
}
