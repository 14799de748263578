package jaql

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime/wire"
	"dyno/internal/sqlparse"
)

// Remote operators. When the environment carries a task executor (the
// proc backend), every submitted spec also gets a serialized
// *wire.OpSpec: the uncompiled values its builders were given. A
// worker turns the op back into those values with DecodeOp and calls
// the same builders, so both backends run one operator implementation.
// With no executor installed the encoders never run and the sim arm is
// untouched.

// sourceSpec serializes a unit input source (minus its file, which the
// executor resolves to mirrored blocks).
func sourceSpec(s Source) (*wire.SourceSpec, error) {
	filter, err := wire.EncodeExpr(s.Filter)
	if err != nil {
		return nil, fmt.Errorf("jaql: source %s: %w", s.Wrap, err)
	}
	return &wire.SourceSpec{Wrap: s.Wrap, Filter: filter}, nil
}

// scanOp serializes a scan unit.
func scanOp(probe Source, live map[string]map[string]bool) (*wire.OpSpec, error) {
	src, err := sourceSpec(probe)
	if err != nil {
		return nil, err
	}
	return &wire.OpSpec{Kind: "scan", Source: src, Prune: wire.EncodePrune(live)}, nil
}

// repartitionOp serializes a repartition-join unit. The residual must
// be the uncompiled conjoined join predicate over merged rows.
func repartitionOp(u *Unit, residual expr.Expr, lKeys, rKeys []data.Path, live map[string]map[string]bool) (*wire.OpSpec, error) {
	left, err := sourceSpec(u.Probe)
	if err != nil {
		return nil, err
	}
	right, err := sourceSpec(u.Right)
	if err != nil {
		return nil, err
	}
	res, err := wire.EncodeExpr(residual)
	if err != nil {
		return nil, fmt.Errorf("jaql: unit %s residual: %w", u.Name, err)
	}
	return &wire.OpSpec{
		Kind:      "repartition",
		Left:      left,
		Right:     right,
		LeftKeys:  wire.EncodePaths(lKeys),
		RightKeys: wire.EncodePaths(rKeys),
		Residual:  res,
		Prune:     wire.EncodePrune(live),
	}, nil
}

// chainOp serializes a broadcast-chain unit from its uncompiled probe
// steps (chainPlan).
func chainOp(probe Source, plans []probeStep, live map[string]map[string]bool) (*wire.OpSpec, error) {
	src, err := sourceSpec(probe)
	if err != nil {
		return nil, err
	}
	op := &wire.OpSpec{Kind: "chain", Source: src, Prune: wire.EncodePrune(live)}
	for i, st := range plans {
		residual, err := wire.EncodeExpr(st.residual)
		if err != nil {
			return nil, fmt.Errorf("jaql: chain step %d residual: %w", i, err)
		}
		op.Steps = append(op.Steps, wire.ChainStep{Build: st.name, Keys: wire.EncodePaths(st.keys), Residual: residual})
	}
	return op, nil
}

// aggregateOp serializes the final grouping/aggregation job over the
// uncompiled query expressions.
func aggregateOp(q *sqlparse.Query, combine bool) (*wire.OpSpec, error) {
	groupBy, err := wire.EncodeExprs(q.GroupBy)
	if err != nil {
		return nil, fmt.Errorf("jaql: group-by: %w", err)
	}
	sel, err := wire.EncodeSelect(q.Select)
	if err != nil {
		return nil, fmt.Errorf("jaql: select: %w", err)
	}
	return &wire.OpSpec{Kind: "aggregate", GroupBy: groupBy, Select: sel, Combine: combine}, nil
}

// attachRemoteOp sets the spec's remote operator when a task executor
// is installed; build errors surface at submit time, before the job
// runs.
func attachRemoteOp(env *mapreduce.Env, spec *mapreduce.Spec, build func() (*wire.OpSpec, error)) error {
	if env.Exec == nil {
		return nil
	}
	op, err := build()
	if err != nil {
		return err
	}
	spec.RemoteOp = op
	return nil
}

// TaskFuncs is a remote operator decoded into the functions its job's
// task bodies run.
type TaskFuncs struct {
	Input   mapreduce.Input      // map side of the decoded input
	Reduce  mapreduce.ReduceFunc // nil for map-only ops
	Combine mapreduce.ReduceFunc // nil unless the op's tasks combine
}

// DecodeOp turns a remote operator back into the values buildSpec and
// runAggregateJob give their builders — sources, keys, probe steps,
// prune map, grouping and select list — and calls those builders: the
// map side of input inputIdx (0 = left, 1 = right for a repartition)
// and the op's reducer and combiner. Expressions are compiled against
// first, the task block's first record (null compiles nothing);
// compilation changes neither results nor UDF cost, so a worker
// computes exactly what the in-process job computes.
func DecodeOp(op *wire.OpSpec, inputIdx int, first data.Value) (*TaskFuncs, error) {
	live := wire.DecodeLive(op.Prune)
	prune := NewPruner(live)
	tf := &TaskFuncs{}
	switch op.Kind {
	case "scan", "chain":
		if inputIdx != 0 {
			return nil, fmt.Errorf("jaql: %s op has no input %d", op.Kind, inputIdx)
		}
		src, err := decodeSource(op.Source)
		if err != nil {
			return nil, err
		}
		if op.Kind == "scan" {
			tf.Input = scanInput(src, first, prune)
			break
		}
		if len(op.Steps) == 0 {
			return nil, fmt.Errorf("jaql: chain op has no steps")
		}
		plans := make([]probeStep, len(op.Steps))
		for i, st := range op.Steps {
			keys, err := wire.DecodePaths(st.Keys)
			if err != nil {
				return nil, err
			}
			residual, err := wire.DecodeExpr(st.Residual)
			if err != nil {
				return nil, err
			}
			plans[i] = probeStep{name: st.Build, keys: keys, residual: residual}
		}
		tf.Input = chainInput(src, first, plans, prune)
	case "repartition":
		side, keyStrs, tag := op.Left, op.LeftKeys, "L"
		switch inputIdx {
		case 0:
		case 1:
			side, keyStrs, tag = op.Right, op.RightKeys, "R"
		default:
			return nil, fmt.Errorf("jaql: repartition op has no input %d", inputIdx)
		}
		src, err := decodeSource(side)
		if err != nil {
			return nil, err
		}
		keys, err := wire.DecodePaths(keyStrs)
		if err != nil {
			return nil, err
		}
		residual, err := wire.DecodeExpr(op.Residual)
		if err != nil {
			return nil, err
		}
		tf.Input = shuffleInput(src, first, keys, tag, prune)
		tf.Reduce = repartitionReduce(residual, prune)
	case "aggregate":
		if inputIdx != 0 {
			return nil, fmt.Errorf("jaql: aggregate op has no input %d", inputIdx)
		}
		groupBy, err := wire.DecodeExprs(op.GroupBy)
		if err != nil {
			return nil, err
		}
		sel, err := wire.DecodeSelect(op.Select)
		if err != nil {
			return nil, err
		}
		if !first.IsNull() {
			groupBy = compileExprs(groupBy, first)
			sel = compileSelect(sel, first)
		}
		tf.Input = mapreduce.Input{Map: groupMap(groupBy)}
		tf.Reduce, tf.Combine = aggregateFuncs(sel, op.Combine)
	default:
		return nil, fmt.Errorf("jaql: unknown op kind %q", op.Kind)
	}
	return tf, nil
}

// decodeSource rebuilds a unit input source (minus its file).
func decodeSource(s *wire.SourceSpec) (Source, error) {
	if s == nil {
		return Source{}, fmt.Errorf("jaql: op has no source")
	}
	filter, err := wire.DecodeExpr(s.Filter)
	if err != nil {
		return Source{}, err
	}
	return Source{Wrap: s.Wrap, Filter: filter}, nil
}
