package data

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// The defining property: byte order of normalized keys matches Compare.
func TestNormKeyOrderMatchesCompare(t *testing.T) {
	vals := []Value{
		Null(),
		Bool(false), Bool(true),
		Int(-500), Int(-1), Int(0), Int(1), Int(42), Int(1 << 50),
		Double(math.Inf(-1)), Double(-2.5), Double(math.Copysign(0, -1)), Double(0.0),
		Double(0.5), Double(2.5), Double(1e300), Double(math.Inf(1)),
		Double(math.NaN()), Int(math.MinInt64), Int(math.MaxInt64),
		Int(1 << 53), Int(1<<53 + 1), Double(1 << 53), Double(1<<53 + 2),
		Int(-1 << 53), Int(-1<<53 - 1), Double(0x1p63), Double(-0x1p63),
		String(""), String("a"), String("a\x00b"), String("ab"), String("b"),
		Array(), Array(Int(1)), Array(Int(1), Int(2)), Array(Int(2)),
		Array(String("x")), Array(Int(1<<53+1), Int(0)), Array(Double(1<<53), Int(1)),
		Array(Double(math.NaN())), Array(Double(math.NaN()), Int(1)),
		Object(),
		Object(Field{Name: "a", Value: Int(1)}),
		Object(Field{Name: "a", Value: Int(1)}, Field{Name: "b", Value: Int(2)}),
		Object(Field{Name: "a", Value: Int(2)}),
		Object(Field{Name: "b", Value: Int(0)}),
		Object(Field{Name: "x", Value: Int(math.MaxInt64)}),
	}
	for i, a := range vals {
		for j, b := range vals {
			want := sign(Compare(a, b))
			got := sign(bytes.Compare(AppendNormKey(nil, a), AppendNormKey(nil, b)))
			if got != want {
				t.Errorf("vals[%d]=%s vs vals[%d]=%s: bytes.Compare=%d, Compare=%d",
					i, a, j, b, got, want)
			}
		}
	}
}

func TestNormKeyPropertyOrderMatchesCompare(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 3), randomValue(r, 3)
		return sign(bytes.Compare(AppendNormKey(nil, a), AppendNormKey(nil, b))) == sign(Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestNormKeyPropertyTotalOrder checks, on random triples drawn mostly
// from the numeric edge cases (so ties are common), that Compare is a
// total order, that normalized keys agree with it, and that equal
// values share one key and one Hash64.
func TestNormKeyPropertyTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		draw := func() Value {
			if r.Intn(4) == 0 {
				return randomValue(r, 2)
			}
			return randomEdgeNumber(r)
		}
		v := [3]Value{draw(), draw(), draw()}
		for _, a := range v {
			for _, b := range v {
				c := sign(Compare(a, b))
				if sign(bytes.Compare(AppendNormKey(nil, a), AppendNormKey(nil, b))) != c {
					t.Logf("key order of %s vs %s disagrees with Compare %d", a, b, c)
					return false
				}
				if c == 0 && Hash64(a) != Hash64(b) {
					t.Logf("equal values %s and %s hash apart", a, b)
					return false
				}
				for _, x := range v {
					if c <= 0 && Compare(b, x) <= 0 && Compare(a, x) > 0 {
						t.Logf("not transitive: %s <= %s <= %s", a, b, x)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Equal values (including cross-kind int/double equality) must map to
// identical keys, since the shuffle groups by key equality.
func TestNormKeyEqualValuesSameKey(t *testing.T) {
	pairs := [][2]Value{
		{Int(3), Double(3.0)},
		{Int(0), Double(math.Copysign(0, -1))},
		{Double(0.0), Double(math.Copysign(0, -1))},
		{Int(-7), Double(-7.0)},
		{Array(Int(1), Double(2)), Array(Double(1), Int(2))},
		{
			Object(Field{Name: "k", Value: Int(5)}),
			Object(Field{Name: "k", Value: Double(5)}),
		},
		{Double(math.NaN()), Double(-math.NaN())},
		{Int(1 << 53), Double(1 << 53)},
		{Int(1 << 60), Double(1 << 60)},
		{Int(math.MinInt64), Double(-0x1p63)},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) != 0 {
			t.Fatalf("test bug: %s and %s not Compare-equal", p[0], p[1])
		}
		ka, kb := AppendNormKey(nil, p[0]), AppendNormKey(nil, p[1])
		if !bytes.Equal(ka, kb) {
			t.Errorf("%s and %s are Compare-equal but keys differ: %x vs %x",
				p[0], p[1], ka, kb)
		}
	}
}

// Distinct values must map to distinct keys.
func TestNormKeyDistinctValuesDistinctKeys(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true), Int(0), Int(1), String(""),
		String("\x00"), String("\x00\xff"), Array(), Array(String("")),
		Array(Null()), Object(), Object(Field{Name: "", Value: Null()}),
		Array(String("a"), String("b")), Array(String("a\x00\x00b")),
		Double(math.NaN()), Double(math.Inf(-1)), Int(1 << 53), Int(1<<53 + 1),
		Int(math.MaxInt64), Double(0x1p63),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := NormKey(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share key %x", prev, v, k)
		}
		seen[k] = v
	}
}

// TestNormKeyExtremeValues pins the number layout on the values a bare
// float64 image cannot order: NaN, integers beyond ±2^53 and the int64
// extremes. Each key must order as the exact math/big reference says,
// and keys below 2^53 in magnitude stay 9 bytes.
func TestNormKeyExtremeValues(t *testing.T) {
	vals := []Value{
		Double(math.NaN()), Double(math.Inf(-1)), Int(math.MinInt64), Double(-0x1p63),
		Int(math.MinInt64 + 1), Int(-1<<53 - 1), Int(-1 << 53), Double(-1 << 53),
		Int(-1<<53 + 1), Int(0), Double(math.Copysign(0, -1)), Int(1<<53 - 1),
		Int(1 << 53), Int(1<<53 + 1), Double(1<<53 + 2), Int(1<<53 + 2), Int(1<<53 + 3),
		Int(math.MaxInt64 - 1024), Int(math.MaxInt64 - 1), Int(math.MaxInt64),
		Double(0x1p63), Double(math.Inf(1)),
	}
	for _, a := range vals {
		ka := AppendNormKey(nil, a)
		wantLen := 9
		if f := math.Abs(a.Float()); f >= 0x1p53 {
			wantLen = 11
		}
		if len(ka) != wantLen {
			t.Errorf("NormKey(%s) is %d bytes, want %d", a, len(ka), wantLen)
		}
		for _, b := range vals {
			want := bigCompare(a, b)
			if got := Compare(a, b); got != want {
				t.Errorf("Compare(%s, %s) = %d, reference %d", a, b, got, want)
			}
			if got := sign(bytes.Compare(ka, AppendNormKey(nil, b))); got != want {
				t.Errorf("key order of %s vs %s = %d, reference %d", a, b, got, want)
			}
		}
	}
}

// bigCompare is an independent reference order for two numbers: NaN
// below everything and equal to itself, everything else by exact value
// through math/big.
func bigCompare(a, b Value) int {
	an, bn := math.IsNaN(a.Float()) && a.Kind() == KindDouble, math.IsNaN(b.Float()) && b.Kind() == KindDouble
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	exact := func(v Value) *big.Float {
		if v.Kind() == KindInt {
			return new(big.Float).SetInt64(v.Int())
		}
		return new(big.Float).SetFloat64(v.Float())
	}
	return exact(a).Cmp(exact(b))
}

// FuzzNormKeyOrder checks Compare and the normalized-key order against
// the math/big reference on arbitrary int/double pairs, bare and as the
// first element of an array (where a residual must not leak into the
// following element's comparison).
func FuzzNormKeyOrder(f *testing.F) {
	f.Add(int64(1<<53+1), 0x1p53, int64(0), 0.0, uint8(1))
	f.Add(int64(math.MaxInt64), 0x1p63, int64(math.MinInt64), -0x1p63, uint8(3))
	f.Add(int64(0), math.NaN(), int64(-1), math.Inf(-1), uint8(0))
	f.Add(int64(0), math.Copysign(0, -1), int64(0), 0.0, uint8(5))
	f.Fuzz(func(t *testing.T, ai int64, af float64, bi int64, bf float64, sel uint8) {
		a, b := Int(ai), Int(bi)
		if sel&1 != 0 {
			a = Double(af)
		}
		if sel&2 != 0 {
			b = Double(bf)
		}
		want := bigCompare(a, b)
		if sel&4 != 0 {
			a, b = Array(a, Int(1)), Array(b, Int(0))
		}
		if got := Compare(a, b); got != want && !(want == 0 && sel&4 != 0) {
			t.Fatalf("Compare(%s, %s) = %d, reference %d", a, b, got, want)
		}
		if got, c := sign(bytes.Compare(AppendNormKey(nil, a), AppendNormKey(nil, b))), Compare(a, b); got != c {
			t.Fatalf("key order of %s vs %s = %d, Compare %d", a, b, got, c)
		}
		if Compare(a, b) == 0 && Hash64(a) != Hash64(b) {
			t.Fatalf("equal values %s and %s hash apart", a, b)
		}
	})
}

func TestNormKeyAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 128)
	k1 := AppendNormKey(buf, Int(7))
	k2 := AppendNormKey(k1, String("x"))
	if !bytes.Equal(k2[:len(k1)], k1) {
		t.Error("append overwrote earlier key bytes")
	}
	want := AppendNormKey(nil, String("x"))
	if !bytes.Equal(k2[len(k1):], want) {
		t.Errorf("appended key = %x, want %x", k2[len(k1):], want)
	}
}

func BenchmarkNormKeyEncode(b *testing.B) {
	v := Array(Int(123456), String("BRAZIL"), Double(1995.5))
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendNormKey(buf[:0], v)
	}
}

func BenchmarkNormKeyCompareVsDataCompare(b *testing.B) {
	x := Array(Int(123456), String("BRAZIL"), Double(1995.5))
	y := Array(Int(123456), String("BRAZIL"), Double(1996.5))
	kx, ky := NormKey(x), NormKey(y)
	b.Run("normkey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if kx >= ky {
				b.Fatal("order broken")
			}
		}
	})
	b.Run("compare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Compare(x, y) >= 0 {
				b.Fatal("order broken")
			}
		}
	})
}
