package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/naive"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// approxTol is the relative tolerance for doubles: engine aggregates
// sum group members in task order, the oracle in row order.
const approxTol = 1e-9

// oracle holds each evaluation query's expected rows, sorted for
// multiset comparison.
type oracle struct {
	want    map[string][]data.Value
	elapsed time.Duration
}

// newRegistry returns a UDF registry with the paper's parameters.
func newRegistry() *expr.Registry {
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, tpch.DefaultUDFParams())
	return reg
}

// buildOracle evaluates every query with internal/naive once, outside
// any timed phase, and prints each query's row count so readers see
// how far the check reaches (an empty result checks only emptiness).
func buildOracle(cat naive.Catalog, log io.Writer, perturb bool) (*oracle, error) {
	o := &oracle{want: map[string][]data.Value{}}
	start := time.Now()
	for _, q := range tpch.QueryNames {
		parsed, err := sqlparse.Parse(tpch.MustQuerySQL(q))
		if err != nil {
			return nil, err
		}
		rows, err := naive.Evaluate(parsed, cat, newRegistry())
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		o.want[q] = naive.SortForComparison(rows)
		flag := ""
		if len(rows) == 0 {
			flag = "  (EMPTY: the gate checks only that the engine returns no rows)"
		}
		fmt.Fprintf(log, "# oracle %-4s %3d rows%s\n", q, len(rows), flag)
	}
	o.elapsed = time.Since(start)
	if perturb {
		perturbRows(o.want)
	}
	return o, nil
}

// perturbRows corrupts the first expected row found, so the gate must
// reject every correct result of that query.
func perturbRows(want map[string][]data.Value) {
	for _, q := range tpch.QueryNames {
		if len(want[q]) > 0 {
			want[q] = append([]data.Value{data.String("perturbed")}, want[q][1:]...)
			return
		}
	}
}

// errMismatch marks a result that differs from the oracle.
var errMismatch = errors.New("result differs from the oracle")

// check compares a result to the oracle as a multiset.
func (o *oracle) check(query string, rows []data.Value) error {
	return sameRows(rows, o.want[query])
}

// sameRows reports whether got and a sorted want hold the same rows,
// with doubles compared within approxTol.
func sameRows(got, want []data.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d rows, want %d", errMismatch, len(got), len(want))
	}
	sorted := naive.SortForComparison(got)
	for i := range sorted {
		if !naive.ApproxEqual(sorted[i], want[i], approxTol) {
			return fmt.Errorf("%w: row %d: got %v, want %v", errMismatch, i, sorted[i], want[i])
		}
	}
	return nil
}
