package jaql

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/plan"
	"dyno/internal/rowops"
	"dyno/internal/runtime/wire"
	"dyno/internal/sqlparse"
)

// QueryResult is the final output of a query.
type QueryResult struct {
	Rows []data.Value
	// AggregateJob reports whether a grouping MapReduce job ran.
	AggregateJob bool
}

// FinishQuery executes the operators the cost-based optimizer does not
// consider (§5.1 "Executing the whole query"): grouping/aggregation as
// a MapReduce job over the join result, then client-side ordering,
// limiting, and projection (Jaql evaluates non-parallelized parts on
// the client).
func FinishQuery(env *mapreduce.Env, q *sqlparse.Query, final *plan.Rel, outPath string) (*QueryResult, error) {
	res := &QueryResult{}
	rows := final.File.AllRecords()
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		agg, err := runAggregateJob(env, q, final, outPath)
		if err != nil {
			return nil, err
		}
		rows = agg
		res.AggregateJob = true
	} else {
		sel := q.Select
		if len(rows) > 0 {
			sel = compileSelect(q.Select, rows[0])
		}
		projected := make([]data.Value, 0, len(rows))
		ectx := &expr.Ctx{Reg: env.Reg}
		for _, row := range rows {
			projected = append(projected, rowops.Project(ectx, sel, row))
		}
		if ectx.Err != nil {
			return nil, ectx.Err
		}
		rows = projected
	}
	if len(q.OrderBy) > 0 {
		rowops.Sort(rows, q.OrderBy)
	}
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	res.Rows = rows
	return res, nil
}

// runAggregateJob groups the join output and computes the aggregates
// in a MapReduce job.
func runAggregateJob(env *mapreduce.Env, q *sqlparse.Query, final *plan.Rel, outPath string) ([]data.Value, error) {
	if outPath == "" {
		outPath = "tmp/aggregate"
	}
	// Compile the grouping and select expressions once per job against
	// the input's first record; reducers see the same record layout the
	// map phase reads.
	groupBy := q.GroupBy
	sel := q.Select
	if sample := firstRecord(final.File); !sample.IsNull() {
		groupBy = compileExprs(q.GroupBy, sample)
		sel = compileSelect(q.Select, sample)
	}
	spec := mapreduce.Spec{
		Name:   outPath,
		Output: outPath,
		Inputs: []mapreduce.Input{{File: final.File, Map: groupMap(groupBy)}},
	}
	if err := attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
		return aggregateOp(q, env.UseCombiner)
	}); err != nil {
		return nil, err
	}
	spec.Reduce, spec.Combine = aggregateFuncs(sel, env.UseCombiner)
	result, err := mapreduce.Run(env, spec)
	if err != nil {
		return nil, err
	}
	return result.Output.AllRecords(), nil
}

// groupMap shuffles each record under its grouping key.
func groupMap(groupBy []expr.Expr) mapreduce.MapFunc {
	return func(mc *mapreduce.MapCtx, rec data.Value) {
		mc.EmitKV(rowops.GroupKey(mc.ExprCtx(), groupBy, rec), "", rec)
	}
}

// aggregateFuncs returns the grouping job's reducer and, with map-side
// partial aggregation on, its combiner: the combiner folds each map
// task's rows per group into one mergeable partial, and the reducer
// merges partials. Without it the reducer aggregates whole groups.
func aggregateFuncs(sel []sqlparse.SelectItem, combine bool) (reduce, combiner mapreduce.ReduceFunc) {
	if !combine {
		return func(rc *mapreduce.ReduceCtx, key data.Value, group []mapreduce.Tagged) {
			rc.Emit(rowops.AggregateGroup(rc.ExprCtx(), sel, records(group)))
		}, nil
	}
	reduce = func(rc *mapreduce.ReduceCtx, key data.Value, group []mapreduce.Tagged) {
		rc.Emit(rowops.MergeAggregates(sel, records(group)))
	}
	combiner = func(rc *mapreduce.ReduceCtx, key data.Value, group []mapreduce.Tagged) {
		rc.Emit(rowops.PartialAggregate(rc.ExprCtx(), sel, records(group)))
	}
	return reduce, combiner
}

// records returns a key group's records.
func records(group []mapreduce.Tagged) []data.Value {
	rows := make([]data.Value, len(group))
	for i, g := range group {
		rows[i] = g.Rec
	}
	return rows
}

// compileSelect returns a copy of the select list with each item's
// expression compiled against a sample row (schema-resolved column
// access; see expr.Compile). Output names and semantics are unchanged.
func compileSelect(items []sqlparse.SelectItem, sample data.Value) []sqlparse.SelectItem {
	out := make([]sqlparse.SelectItem, len(items))
	for i, it := range items {
		if it.E != nil {
			// Name() derives the output column from the *expr.Col type,
			// which the compiled wrapper hides; freeze the name first.
			if it.As == "" && !it.Star {
				it.As = it.Name()
			}
			it.E = expr.Compile(it.E, sample)
		}
		out[i] = it
	}
	return out
}

// compileExprs compiles a list of expressions against a sample row.
func compileExprs(es []expr.Expr, sample data.Value) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = expr.Compile(e, sample)
	}
	return out
}

// FormatRows renders result rows for display.
func FormatRows(rows []data.Value, max int) string {
	out := ""
	for i, r := range rows {
		if max > 0 && i >= max {
			out += fmt.Sprintf("... (%d more rows)\n", len(rows)-max)
			break
		}
		out += r.String() + "\n"
	}
	return out
}
