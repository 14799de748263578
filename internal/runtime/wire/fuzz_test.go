package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// gen deterministically derives values and expressions from a fuzz
// byte stream: every input maps to one well-formed tree, so the fuzzer
// explores the codec's structural space instead of drowning in parse
// rejections.
type gen struct {
	b []byte
	i int
}

func (g *gen) next() byte {
	if g.i >= len(g.b) {
		return 0
	}
	v := g.b[g.i]
	g.i++
	return v
}

func (g *gen) u64() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = g.next()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

// str yields a valid-UTF-8 string (engine strings are decoded JSON,
// always valid). NUL bytes survive.
func (g *gen) str() string {
	n := int(g.next()) % 40
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = g.next()
	}
	return strings.ToValidUTF8(string(raw), "�")
}

func (g *gen) value(depth int) data.Value {
	c := g.next()
	if depth <= 0 {
		c %= 6 // scalars only at the depth limit
	} else {
		c %= 8
	}
	switch c {
	case 0:
		return data.Null()
	case 1:
		return data.Bool(g.next()&1 == 0)
	case 2:
		return data.Int(int64(g.u64()))
	case 3:
		return data.Double(math.Float64frombits(g.u64()))
	case 4:
		return data.String(g.str())
	case 5:
		// Boundary scalars the random u64 path rarely hits.
		switch g.next() % 6 {
		case 0:
			return data.Int(1 << 53)
		case 1:
			return data.Int(-(1 << 53))
		case 2:
			return data.Double(math.Copysign(0, -1))
		case 3:
			return data.Double(math.Inf(1))
		case 4:
			return data.Int(math.MinInt64)
		default:
			return data.String("\x00")
		}
	case 6:
		n := int(g.next()) % 5
		elems := make([]data.Value, n)
		for i := range elems {
			elems[i] = g.value(depth - 1)
		}
		return data.Array(elems...)
	default:
		n := int(g.next()) % 5
		fields := make([]data.Field, n)
		for i := range fields {
			fields[i] = data.Field{Name: "f" + string(rune('a'+i)) + g.str(), Value: g.value(depth - 1)}
		}
		return data.Object(fields...)
	}
}

var fuzzPaths = []data.Path{
	data.MustParsePath("l.l_quantity"),
	data.MustParsePath("o.o_orderstatus"),
	data.MustParsePath("p.p_name"),
	data.MustParsePath("a.b.c"),
}

var cmpOps = []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
var arithOps = []expr.ArithOp{expr.Add, expr.Sub, expr.Mul, expr.Div}

func (g *gen) expr(depth int) expr.Expr {
	c := g.next()
	if depth <= 0 {
		c %= 2
	} else {
		c %= 8
	}
	switch c {
	case 0:
		return &expr.Col{Path: fuzzPaths[int(g.next())%len(fuzzPaths)]}
	case 1:
		return &expr.Lit{V: g.value(2)}
	case 2:
		return &expr.Cmp{Op: cmpOps[int(g.next())%len(cmpOps)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 3:
		terms := make([]expr.Expr, 1+int(g.next())%3)
		for i := range terms {
			terms[i] = g.expr(depth - 1)
		}
		return &expr.And{Terms: terms}
	case 4:
		terms := make([]expr.Expr, 1+int(g.next())%3)
		for i := range terms {
			terms[i] = g.expr(depth - 1)
		}
		return &expr.Or{Terms: terms}
	case 5:
		return &expr.Not{E: g.expr(depth - 1)}
	case 6:
		return &expr.Arith{Op: arithOps[int(g.next())%len(arithOps)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	default:
		args := make([]expr.Expr, int(g.next())%3)
		for i := range args {
			args[i] = g.expr(depth - 1)
		}
		return &expr.Call{Name: "udf_" + string(rune('a'+int(g.next())%4)), Args: args}
	}
}

// FuzzValueRoundTrip drives generated values through the binary block
// frame and requires the decode to hand back data.Compare-equal values
// with the identical rendering.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0x00})          // large int
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80})                               // -0.0
	f.Add([]byte{4, 5, 'a', 0x00, 'b', 0xc3, 0xa9})                           // NUL + UTF-8
	f.Add([]byte{7, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 2, 0, 0, 6, 2, 0, 1}) // nested object
	f.Add([]byte{6, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1}) // mixed array
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := &gen{b: raw}
		vals := make([]data.Value, 1+int(g.next())%4)
		for i := range vals {
			vals[i] = g.value(4)
		}
		got := binValueRoundTrip(t, vals)
		for i := range vals {
			assertSameValue(t, vals[i], got[i])
		}
	})
}

// FuzzExprRoundTrip drives one generated expression through the
// binary task codec (as an OpSpec residual), requiring the decode to
// rebuild the identical tree.
func FuzzExprRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{3, 2, 5, 2, 1, 0, 0, 1, 4, 5, 0x00, 0x00, 'x', 0xff, 0xfe})
	f.Add([]byte{7, 2, 6, 1, 0, 1, 2, 2, 2, 1, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := &gen{b: raw}
		e := g.expr(5)
		spec, err := EncodeExpr(e)
		if err != nil {
			t.Fatalf("encode %s: %v", e, err)
		}

		got := taskRoundTrip(t, &Task{Task: "fz", Kind: "map", Op: &OpSpec{Kind: "scan", Residual: spec}})
		be, err := DecodeExpr(got.Op.Residual)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if be.String() != e.String() {
			t.Fatalf("binary round trip changed tree:\n  %s\n  %s", e, be)
		}
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to every frame decoder: binary
// frames carry all outside input a worker accepts, so each decoder
// must return a value or an error and never panic. Seeds are valid
// frames of every kind plus their magic-swapped variants.
func FuzzDecodeFrame(f *testing.F) {
	tasks, err := EncodeTaskBatch(sampleTasks(f))
	if err != nil {
		f.Fatal(err)
	}
	defer tasks.Close()
	results := EncodeResultBatch([]*TaskResult{
		{Rows: adversarialValues(), CPUSeconds: 0.5},
		{Pairs: [][]KV{{{Key: data.Int(1), Tag: "L", Rec: data.String("a")}}, nil}, Parts: []ShufflePart{{Count: 1, Bytes: 9}}},
		{Err: "boom"},
	})
	defer results.Close()
	block := EncodeBlock(adversarialValues())
	defer block.Close()
	shuffle := EncodeShuffle([]KV{{Key: data.String("k"), Rec: data.Array(data.Double(math.Copysign(0, -1)))}, {Key: data.Null(), Tag: "R", Rec: data.Null()}})
	defer shuffle.Close()
	for _, fr := range []*Frame{tasks, results, block, shuffle} {
		f.Add(fr.Bytes())
		for _, magic := range [][]byte{magicTaskBatch, magicRespBatch, magicBlock, magicShuffle} {
			f.Add(append(append([]byte(nil), magic...), fr.Bytes()[len(magic):]...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeTaskBatch(b)
		DecodeResultBatch(b)
		DecodeBlock(b)
		DecodeShuffle(b)
	})
}
