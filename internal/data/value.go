// Package data implements the semistructured value model used throughout
// DYNO. Values are immutable, JSON-like trees: null, bool, int, double,
// string, array, and object. Objects keep their fields sorted by name so
// that encoding, comparison, and hashing are deterministic.
//
// Rows flowing through the engine are objects keyed by relation alias,
// e.g. {"rs": {...restaurant...}, "rv": {...review...}}, which makes
// path expressions such as rs.addr[0].zip uniform across base-table and
// post-join records.
package data

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds, ordered so that Compare can totally order values of
// different kinds (null < bool < numbers < string < array < object).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindDouble
	KindString
	KindArray
	KindObject
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Field is a single named member of an object value.
type Field struct {
	Name  string
	Value Value
}

// Value is an immutable semistructured datum. The zero Value is null.
//
// enc caches the JSON-lines EncodedSize, computed once at construction
// from the (already cached) sizes of the children, so size accounting on
// the engine's hot paths is O(1) instead of re-walking the value tree.
type Value struct {
	kind   Kind
	b      bool
	i      int64
	f      float64
	enc    int64
	s      string
	arr    []Value
	fields []Field // sorted by Name
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, b: true, enc: 4}
	}
	return Value{kind: KindBool, enc: 5}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i, enc: intEncLen(i)} }

// Double returns a floating-point value.
func Double(f float64) Value {
	var buf [32]byte
	return Value{kind: KindDouble, f: f, enc: int64(len(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)))}
}

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s, enc: int64(len(s)) + 2} }

// Array returns an array value holding the given elements. The slice is
// retained; callers must not mutate it afterwards.
func Array(elems ...Value) Value {
	var n int64 = 2
	for i := range elems {
		if i > 0 {
			n++
		}
		n += elems[i].EncodedSize()
	}
	return Value{kind: KindArray, arr: elems, enc: n}
}

// intEncLen returns the decimal encoding length of an integer without
// formatting it.
func intEncLen(i int64) int64 {
	var n int64
	u := uint64(i)
	if i < 0 {
		n = 1
		u = uint64(-i) // math.MinInt64 wraps to its own magnitude, which is correct here
	}
	for {
		n++
		u /= 10
		if u == 0 {
			return n
		}
	}
}

// objectFromSorted wraps fields that are already sorted by name and
// duplicate-free. The slice is retained.
func objectFromSorted(fs []Field) Value {
	var n int64 = 2
	for i := range fs {
		if i > 0 {
			n++
		}
		n += int64(len(fs[i].Name)) + 3 + fs[i].Value.EncodedSize()
	}
	return Value{kind: KindObject, fields: fs, enc: n}
}

// Object returns an object value from the given fields. Fields are sorted
// by name; a duplicate name keeps the last occurrence.
func Object(fields ...Field) Value {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	// Most construction sites already supply fields in sorted order
	// (single-field alias wraps, rebuilds of existing objects); detect
	// that in one pass and skip the sort + dedup entirely.
	sorted := true
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Name >= fs[i].Name {
			sorted = false
			break
		}
	}
	if sorted {
		return objectFromSorted(fs)
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	// Deduplicate, keeping the last write for each name.
	out := fs[:0]
	for i := 0; i < len(fs); i++ {
		if len(out) > 0 && out[len(out)-1].Name == fs[i].Name {
			out[len(out)-1] = fs[i]
		} else {
			out = append(out, fs[i])
		}
	}
	return objectFromSorted(out)
}

// ObjectFromSorted returns an object value over fields that are
// already sorted by name and duplicate-free, retaining the slice
// without copying it. Callers must not mutate the slice afterwards and
// must guarantee the ordering invariant — it is what makes encoding,
// comparison, and hashing deterministic. Row transforms that filter an
// existing object's fields (which are sorted by construction) use this
// to skip Object's defensive copy on per-record paths.
func ObjectFromSorted(fs []Field) Value { return objectFromSorted(fs) }

// ObjectFromMap builds an object value from a map.
func ObjectFromMap(m map[string]Value) Value {
	fs := make([]Field, 0, len(m))
	for k, v := range m {
		fs = append(fs, Field{Name: k, Value: v})
	}
	return Object(fs...)
}

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It is false for non-bool values.
func (v Value) Bool() bool { return v.kind == KindBool && v.b }

// Int returns the integer payload, converting doubles by truncation.
// It is 0 for non-numeric values.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindDouble:
		return int64(v.f)
	default:
		return 0
	}
}

// Float returns the numeric payload as float64. It is 0 for non-numeric
// values.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindDouble:
		return v.f
	default:
		return 0
	}
}

// Str returns the string payload. It is "" for non-string values.
func (v Value) Str() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// IsNumeric reports whether the value is an int or a double.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindDouble }

// Len returns the number of elements (arrays) or fields (objects),
// and 0 for everything else.
func (v Value) Len() int {
	switch v.kind {
	case KindArray:
		return len(v.arr)
	case KindObject:
		return len(v.fields)
	default:
		return 0
	}
}

// Index returns the i-th array element. Out-of-range indexes and
// non-arrays yield null.
func (v Value) Index(i int) Value {
	if v.kind != KindArray || i < 0 || i >= len(v.arr) {
		return Null()
	}
	return v.arr[i]
}

// Elems returns the array elements. Callers must not mutate the slice.
func (v Value) Elems() []Value {
	if v.kind != KindArray {
		return nil
	}
	return v.arr
}

// fieldIndex returns the position of the named field, or -1. Rows are
// shallow objects (a handful of aliases, each wrapping a table-width
// record), so a linear scan with sorted-order early exit beats binary
// search up to a few dozen fields; wider objects use an inlined binary
// search, avoiding the closure calls of sort.Search on the Eval hot
// path.
func (v Value) fieldIndex(name string) int { return fieldIndexIn(v.fields, name) }

func fieldIndexIn(fs []Field, name string) int {
	if len(fs) <= 24 {
		for i := range fs {
			if fs[i].Name >= name {
				if fs[i].Name == name {
					return i
				}
				return -1
			}
		}
		return -1
	}
	lo, hi := 0, len(fs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fs[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fs) && fs[lo].Name == name {
		return lo
	}
	return -1
}

// Field returns the named object field and whether it exists.
func (v Value) Field(name string) (Value, bool) {
	if v.kind != KindObject {
		return Null(), false
	}
	if i := v.fieldIndex(name); i >= 0 {
		return v.fields[i].Value, true
	}
	return Null(), false
}

// FieldOr returns the named field or null when absent.
func (v Value) FieldOr(name string) Value {
	f, _ := v.Field(name)
	return f
}

// Fields returns the object's fields in name order. Callers must not
// mutate the slice.
func (v Value) Fields() []Field {
	if v.kind != KindObject {
		return nil
	}
	return v.fields
}

// With returns a copy of an object value with the named field set.
// Calling With on a non-object returns a fresh single-field object.
func (v Value) With(name string, val Value) Value {
	if v.kind != KindObject {
		return Object(Field{Name: name, Value: val})
	}
	fs := make([]Field, 0, len(v.fields)+1)
	fs = append(fs, v.fields...)
	fs = append(fs, Field{Name: name, Value: val})
	return Object(fs...)
}

// MergeObjects returns an object containing the fields of a and b.
// On a name clash b wins. Non-object inputs contribute nothing.
// Both inputs keep their fields sorted, so the merge is a single linear
// pass — no re-sort, the dominant cost of every join's output row.
func MergeObjects(a, b Value) Value {
	af, bf := a.Fields(), b.Fields()
	if len(af) == 0 && len(bf) == 0 {
		return objectFromSorted(nil)
	}
	fs := make([]Field, 0, len(af)+len(bf))
	i, j := 0, 0
	for i < len(af) && j < len(bf) {
		switch {
		case af[i].Name < bf[j].Name:
			fs = append(fs, af[i])
			i++
		case af[i].Name > bf[j].Name:
			fs = append(fs, bf[j])
			j++
		default: // clash: b wins
			fs = append(fs, bf[j])
			i++
			j++
		}
	}
	fs = append(fs, af[i:]...)
	fs = append(fs, bf[j:]...)
	return objectFromSorted(fs)
}

// Compare totally orders two values: first by kind class (numbers compare
// across int/double), then by payload. It returns -1, 0, or +1.
//
// Numbers compare by exact value, ints against doubles included, so
// Int(2^53+1) sorts above Double(2^53). NaN sorts below every other
// number and equals itself, and -0.0 equals +0.0, as in cmp.Compare.
func Compare(a, b Value) int {
	ca, cb := kindClass(a.kind), kindClass(b.kind)
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		if a.b == b.b {
			return 0
		}
		if !a.b {
			return -1
		}
		return 1
	case KindInt, KindDouble:
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			return cmp.Compare(a.i, b.i)
		case a.kind == KindInt:
			return CompareIntFloat(a.i, b.f)
		case b.kind == KindInt:
			return -CompareIntFloat(b.i, a.f)
		}
		return cmp.Compare(a.f, b.f)
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindArray:
		n := min(len(a.arr), len(b.arr))
		for i := 0; i < n; i++ {
			if c := Compare(a.arr[i], b.arr[i]); c != 0 {
				return c
			}
		}
		return len(a.arr) - len(b.arr)
	case KindObject:
		n := min(len(a.fields), len(b.fields))
		for i := 0; i < n; i++ {
			if c := strings.Compare(a.fields[i].Name, b.fields[i].Name); c != 0 {
				return c
			}
			if c := Compare(a.fields[i].Value, b.fields[i].Value); c != 0 {
				return c
			}
		}
		return len(a.fields) - len(b.fields)
	}
	return 0
}

// CompareIntFloat compares an integer with a double by exact value,
// with NaN below every number. It returns -1, 0, or +1.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case f != f: // NaN
		return 1
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63), so the conversion is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(0, f-t) // i == trunc(f): the fraction decides
}

// kindClass groups int and double so they compare as numbers.
func kindClass(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindDouble:
		return 2
	case KindString:
		return 3
	case KindArray:
		return 4
	case KindObject:
		return 5
	}
	return 6
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a parameters (hash/fnv's 64a variant, inlined so hashing is
// allocation-free on the shuffle hot path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns a 64-bit FNV-1a hash of the value. Values that compare
// equal hash equal (ints and integral doubles included). The result is
// byte-for-byte identical to hashing the same traversal through
// hash/fnv.New64a.
func Hash64(v Value) uint64 {
	return hashValue(fnvOffset64, v)
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func hashValue(h uint64, v Value) uint64 {
	switch v.kind {
	case KindNull:
		return hashByte(h, 0)
	case KindBool:
		h = hashByte(h, 1)
		if v.b {
			return hashByte(h, 1)
		}
		return hashByte(h, 0)
	case KindInt, KindDouble:
		// Hash numbers by their float64 image so 2 and 2.0 collide,
		// matching Compare's cross-kind equality. -0.0 hashes as +0.0
		// and every NaN as one canonical NaN, since Compare equates them.
		h = hashByte(h, 2)
		f := v.Float()
		switch {
		case f == 0:
			f = 0
		case f != f:
			f = math.NaN()
		}
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			h = hashByte(h, byte(bits>>(8*i)))
		}
		return h
	case KindString:
		return hashString(hashByte(h, 3), v.s)
	case KindArray:
		h = hashByte(h, 4)
		for i := range v.arr {
			h = hashValue(h, v.arr[i])
		}
		return h
	case KindObject:
		h = hashByte(h, 5)
		for i := range v.fields {
			h = hashString(h, v.fields[i].Name)
			h = hashValue(h, v.fields[i].Value)
		}
		return h
	}
	return h
}

// EncodedSize estimates the on-disk size of the value in bytes, matching
// the JSON-lines encoding used by the simulated DFS. The simulator and
// the optimizer's cost model both consume this estimate. The size is
// cached at construction, so calls are O(1); the walk below only runs
// for null (the zero Value carries no cache).
func (v Value) EncodedSize() int64 {
	if v.enc > 0 {
		return v.enc
	}
	return v.encodedSizeSlow()
}

func (v Value) encodedSizeSlow() int64 {
	switch v.kind {
	case KindNull:
		return 4
	case KindBool:
		if v.b {
			return 4
		}
		return 5
	case KindInt:
		return int64(len(strconv.FormatInt(v.i, 10)))
	case KindDouble:
		return int64(len(strconv.FormatFloat(v.f, 'g', -1, 64)))
	case KindString:
		return int64(len(v.s)) + 2
	case KindArray:
		var n int64 = 2
		for i := range v.arr {
			if i > 0 {
				n++
			}
			n += v.arr[i].EncodedSize()
		}
		return n
	case KindObject:
		var n int64 = 2
		for i := range v.fields {
			if i > 0 {
				n++
			}
			n += int64(len(v.fields[i].Name)) + 3 + v.fields[i].Value.EncodedSize()
		}
		return n
	}
	return 0
}

// String renders the value as compact JSON-ish text.
func (v Value) String() string {
	var sb strings.Builder
	v.writeTo(&sb)
	return sb.String()
}

func (v Value) writeTo(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.b))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindDouble:
		sb.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindArray:
		sb.WriteByte('[')
		for i, e := range v.arr {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.writeTo(sb)
		}
		sb.WriteByte(']')
	case KindObject:
		sb.WriteByte('{')
		for i, f := range v.fields {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(f.Name))
			sb.WriteByte(':')
			f.Value.writeTo(sb)
		}
		sb.WriteByte('}')
	}
}

// Truthy reports whether the value should be treated as true in a filter
// position: boolean true, or any non-null non-false value is falsy except
// booleans; only Bool(true) is truthy, matching SQL-ish predicate
// semantics where predicates evaluate to booleans.
func (v Value) Truthy() bool { return v.kind == KindBool && v.b }
