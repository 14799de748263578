package wire

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
)

func TestExprCodecRoundTrip(t *testing.T) {
	e := &expr.And{Terms: []expr.Expr{
		&expr.Cmp{Op: expr.LE, L: &expr.Col{Path: data.MustParsePath("l.l_quantity")}, R: &expr.Lit{V: data.Double(24)}},
		&expr.Or{Terms: []expr.Expr{
			&expr.Not{E: &expr.Cmp{Op: expr.EQ, L: &expr.Col{Path: data.MustParsePath("o.o_orderstatus")}, R: &expr.Lit{V: data.String("F")}}},
			&expr.Cmp{Op: expr.GT,
				L: &expr.Arith{Op: expr.Mul, L: &expr.Col{Path: data.MustParsePath("l.l_extendedprice")}, R: &expr.Arith{Op: expr.Sub, L: &expr.Lit{V: data.Int(1)}, R: &expr.Col{Path: data.MustParsePath("l.l_discount")}}},
				R: &expr.Lit{V: data.Double(100.5)}},
			&expr.Call{Name: "q9_keep_part", Args: []expr.Expr{&expr.Col{Path: data.MustParsePath("p.p_name")}}},
		}},
	}}
	spec, err := EncodeExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	back := taskRoundTrip(t, &Task{Task: "t", Kind: "map", Op: &OpSpec{Kind: "scan", Residual: spec}})
	got, err := DecodeExpr(back.Op.Residual)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != e.String() {
		t.Fatalf("expr round trip changed tree:\n  %s\n  %s", e.String(), got.String())
	}
}

func TestExprCodecRefusesCompiledNodes(t *testing.T) {
	raw := &expr.Cmp{Op: expr.EQ, L: &expr.Col{Path: data.MustParsePath("a.x")}, R: &expr.Lit{V: data.Int(1)}}
	sample := data.Object(data.Field{Name: "a", Value: data.Object(data.Field{Name: "x", Value: data.Int(1)})})
	compiled := expr.Compile(raw, sample)
	if _, err := EncodeExpr(compiled); err == nil {
		t.Fatal("expected EncodeExpr to refuse a compiled tree")
	}
}
