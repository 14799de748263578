package wire

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// ExprSpec is the serialized form of an uncompiled expression tree.
// Compiled nodes (accessor-bound columns, see expr.Compile) are
// refused at encode time: callers serialize the uncompiled source
// expressions, and workers compile them against their own blocks —
// expr.Compile is documented to change neither results nor UDF CPU
// accrual, so both sides evaluate identically.
type ExprSpec struct {
	T    string      `json:"t"`              // col lit cmp and or not arith call
	P    string      `json:"p,omitempty"`    // col: path
	V    data.Value  `json:"v,omitempty"`    // lit
	Op   string      `json:"op,omitempty"`   // cmp: = <> < <= > >=; arith: + - * /
	L    *ExprSpec   `json:"l,omitempty"`    // cmp, arith
	R    *ExprSpec   `json:"r,omitempty"`    // cmp, arith
	Xs   []*ExprSpec `json:"xs,omitempty"`   // and, or
	X    *ExprSpec   `json:"x,omitempty"`    // not
	Name string      `json:"name,omitempty"` // call
	Args []*ExprSpec `json:"args,omitempty"` // call
}

// EncodeExpr serializes an uncompiled expression; nil encodes as nil.
func EncodeExpr(e expr.Expr) (*ExprSpec, error) {
	if e == nil {
		return nil, nil
	}
	switch n := e.(type) {
	case *expr.Col:
		return &ExprSpec{T: "col", P: n.Path.String()}, nil
	case *expr.Lit:
		return &ExprSpec{T: "lit", V: n.V}, nil
	case *expr.Cmp:
		l, err := EncodeExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := EncodeExpr(n.R)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "cmp", Op: n.Op.String(), L: l, R: r}, nil
	case *expr.And:
		xs, err := EncodeExprs(n.Terms)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "and", Xs: xs}, nil
	case *expr.Or:
		xs, err := EncodeExprs(n.Terms)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "or", Xs: xs}, nil
	case *expr.Not:
		x, err := EncodeExpr(n.E)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "not", X: x}, nil
	case *expr.Arith:
		l, err := EncodeExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := EncodeExpr(n.R)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "arith", Op: n.Op.String(), L: l, R: r}, nil
	case *expr.Call:
		args, err := EncodeExprs(n.Args)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "call", Name: n.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("wire: unsupported expression node %T (serialize uncompiled expressions)", e)
	}
}

// EncodeExprs serializes an expression list (group-by keys, operands).
func EncodeExprs(es []expr.Expr) ([]*ExprSpec, error) {
	out := make([]*ExprSpec, len(es))
	for i, e := range es {
		s, err := EncodeExpr(e)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// DecodeExpr rebuilds the expression tree; a nil spec decodes as nil.
func DecodeExpr(s *ExprSpec) (expr.Expr, error) {
	if s == nil {
		return nil, nil
	}
	switch s.T {
	case "col":
		p, err := data.ParsePath(s.P)
		if err != nil {
			return nil, fmt.Errorf("wire: bad column path %q: %v", s.P, err)
		}
		return &expr.Col{Path: p}, nil
	case "lit":
		return &expr.Lit{V: s.V}, nil
	case "cmp":
		op, err := parseCmpOp(s.Op)
		if err != nil {
			return nil, err
		}
		l, err := DecodeExpr(s.L)
		if err != nil {
			return nil, err
		}
		r, err := DecodeExpr(s.R)
		if err != nil {
			return nil, err
		}
		return &expr.Cmp{Op: op, L: l, R: r}, nil
	case "and":
		xs, err := DecodeExprs(s.Xs)
		if err != nil {
			return nil, err
		}
		return &expr.And{Terms: xs}, nil
	case "or":
		xs, err := DecodeExprs(s.Xs)
		if err != nil {
			return nil, err
		}
		return &expr.Or{Terms: xs}, nil
	case "not":
		x, err := DecodeExpr(s.X)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: x}, nil
	case "arith":
		op, err := parseArithOp(s.Op)
		if err != nil {
			return nil, err
		}
		l, err := DecodeExpr(s.L)
		if err != nil {
			return nil, err
		}
		r, err := DecodeExpr(s.R)
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: op, L: l, R: r}, nil
	case "call":
		args, err := DecodeExprs(s.Args)
		if err != nil {
			return nil, err
		}
		return &expr.Call{Name: s.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("wire: unknown expression tag %q", s.T)
	}
}

// DecodeExprs rebuilds an expression list.
func DecodeExprs(ss []*ExprSpec) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(ss))
	for i, s := range ss {
		e, err := DecodeExpr(s)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func parseCmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	}
	return 0, fmt.Errorf("wire: unknown comparison operator %q", s)
}

func parseArithOp(s string) (expr.ArithOp, error) {
	switch s {
	case "+":
		return expr.Add, nil
	case "-":
		return expr.Sub, nil
	case "*":
		return expr.Mul, nil
	case "/":
		return expr.Div, nil
	}
	return 0, fmt.Errorf("wire: unknown arithmetic operator %q", s)
}
