package data

import "math"

// Normalized keys: an order-preserving byte encoding of values, so that
// for any two values a and b,
//
//	bytes.Compare(NormKey(a), NormKey(b)) == Compare(a, b)
//
// (including cross-kind comparisons and int/double numeric equality).
// The encoding is total: every value has one. The shuffle uses it to
// sort and group kvPairs with memcmp string compares instead of
// recursive Compare calls per comparison, and the broadcast hash table
// uses it for probe equality.
//
// Layout. Every value starts with a kind-class byte (classes as in
// kindClass, shifted by 1 so 0x00 stays free as a terminator that
// sorts below any element):
//
//	null   0x01
//	bool   0x02 b
//	number 0x03 <8-byte image of the nearest float64> [<2-byte residual>]
//	string 0x04 <bytes, 0x00 escaped as 0x00 0xFF> 0x00 0x00
//	array  0x05 <elements...> 0x00
//	object 0x06 (<name as escaped string> <value>)... 0x00
//
// A number's image is the big-endian bits of its nearest float64 with
// the usual sign-fold (flip all bits for negatives, flip the sign bit
// for positives); -0.0 is canonicalized to +0.0 first, and every NaN
// encodes as all zeros, which sorts below -Inf. Below 2^53 in magnitude
// every integer is exact in a float64, so the image alone orders ints
// and doubles together. From 2^53 up (infinities included) a 2-byte
// residual follows: the biased difference int - nearestDouble (0 for
// doubles, within ±1024 for any int64), which orders the integers that
// share one image. Whether a residual follows is a function of the
// 8-byte prefix, so two keys compared byte by byte either both carry
// one at that position or neither does. The string escape keeps the
// encoding self-delimiting inside arrays and objects while preserving
// order, and the 0x00 terminators sort shorter prefixes first, exactly
// like Compare's length tie-breaks.

const (
	nkTerm   = 0x00
	nkNull   = 0x01
	nkBool   = 0x02
	nkNumber = 0x03
	nkString = 0x04
	nkArray  = 0x05
	nkObject = 0x06
)

// residualFrom is the magnitude from which float64 images stop
// separating integers, so a residual follows the image.
const residualFrom = 0x1p53

// residualBias centers the residual in its unsigned 2-byte field.
const residualBias = 1 << 15

// AppendNormKey appends the normalized encoding of v to dst.
func AppendNormKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, nkNull)
	case KindBool:
		if v.b {
			return append(dst, nkBool, 1)
		}
		return append(dst, nkBool, 0)
	case KindInt:
		f := float64(v.i) // nearest double
		dst = appendNormFloat(dst, f)
		if math.Abs(f) < residualFrom {
			return dst
		}
		var r int64
		if f >= 0x1p63 { // int64(f) would overflow; i is within 1024 of 2^63
			r = v.i - math.MaxInt64 - 1
		} else {
			r = v.i - int64(f)
		}
		return appendResidual(dst, r)
	case KindDouble:
		dst = appendNormFloat(dst, v.f)
		if math.Abs(v.f) >= residualFrom { // false for NaN
			return appendResidual(dst, 0)
		}
		return dst
	case KindString:
		return appendNormString(append(dst, nkString), v.s)
	case KindArray:
		dst = append(dst, nkArray)
		for i := range v.arr {
			dst = AppendNormKey(dst, v.arr[i])
		}
		return append(dst, nkTerm)
	case KindObject:
		dst = append(dst, nkObject)
		for i := range v.fields {
			dst = appendNormString(dst, v.fields[i].Name)
			dst = AppendNormKey(dst, v.fields[i].Value)
		}
		return append(dst, nkTerm)
	}
	return dst
}

// appendNormFloat appends the number tag and the order-preserving
// 8-byte image of f: NaN as all zeros, -0.0 as +0.0.
func appendNormFloat(dst []byte, f float64) []byte {
	var bits uint64
	switch {
	case f != f:
		bits = 0
	case f == 0:
		bits = 1 << 63
	default:
		bits = math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
	}
	return append(dst, nkNumber,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

// appendResidual appends the biased 2-byte residual r, |r| <= 1024.
func appendResidual(dst []byte, r int64) []byte {
	u := uint16(r + residualBias)
	return append(dst, byte(u>>8), byte(u))
}

// appendNormString appends s with 0x00 escaped as 0x00 0xFF and a
// 0x00 0x00 terminator, preserving byte order and self-delimiting the
// encoding.
func appendNormString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// NormKey returns the normalized key of v as a string (memcmp-ordered,
// usable as a map key).
func NormKey(v Value) string {
	return string(AppendNormKey(make([]byte, 0, 24), v))
}
