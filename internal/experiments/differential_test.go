package experiments

import (
	"reflect"
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/naive"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// TestFastPathDifferentialWorkload runs the full TPC-H query set
// through the DYNOPT engine on the one execution path — normalized-key
// shuffle, pooled buffers, and the columnar batch arm wherever an
// input admits it — and checks every result row against the naive
// relational-algebra oracle. Each query runs twice: the second run
// reuses the shuffle pools and per-split batch caches the first one
// warmed, and must be indistinguishable from it (rows, virtual-time
// trace, job counts, plan evolution). CI runs this under -race, which
// also guards the batch layer's shared per-split caches and the pooled
// buffers against cross-task sharing bugs.
func TestFastPathDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential workload is slow")
	}
	cfg := testConfig()
	for _, query := range tpch.QueryNames {
		query := query
		t.Run(query, func(t *testing.T) {
			first, err := runVariant(baselines.VariantDynOpt, 100, cfg, query, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runVariant(baselines.VariantDynOpt, 100, cfg, query, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, first.res, second.res)
			assertMatchesOracle(t, cfg, query, first.res.Rows)
		})
	}
}

// TestFastPathDifferentialPilotMT repeats the oracle check under the
// PILR_MT pilot mode with the UNC-2 re-optimization strategy — the
// configuration with the most concurrent jobs in flight, and therefore
// the most pooled-buffer traffic.
func TestFastPathDifferentialPilotMT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tweak := func(o *core.Options) {
		o.PilotMode = core.PilotMT
		o.Strategy = core.Uncertain{N: 2}
	}
	cfg := testConfig()
	for _, query := range []string{"Q8p", "Q10"} {
		m, err := runVariant(baselines.VariantDynOpt, 100, cfg, query, false, tweak)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		assertMatchesOracle(t, cfg, query, m.res.Rows)
	}
}

// assertMatchesOracle checks a query's result rows against the naive
// relational-algebra evaluator over the same lab data.
func assertMatchesOracle(t *testing.T, cfg Config, query string, rows []data.Value) {
	t.Helper()
	l, err := getLab(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := l.newEnv(false, cfg)
	q := sqlparse.MustParse(tpch.MustQuerySQL(query))
	want, err := naive.Evaluate(q, l.cat, env.Reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("%s yields no rows at test scale; assertion vacuous", query)
	}
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", query, len(rows), len(want))
	}
	for i := range want {
		if !naive.ApproxEqual(rows[i], want[i], 1e-9) {
			t.Fatalf("%s row %d:\n got %v\nwant %v", query, i, rows[i], want[i])
		}
	}
}

// assertSameResult asserts two engine results are indistinguishable:
// rows, virtual-time trace, job counters, and plan evolution.
func assertSameResult(t *testing.T, a, b *core.Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count diverged: first %d, second %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !data.Equal(a.Rows[i], b.Rows[i]) {
			t.Fatalf("row %d diverged:\n  first:  %v\n  second: %v", i, a.Rows[i], b.Rows[i])
		}
	}
	if a.TotalSec != b.TotalSec || a.PilotSec != b.PilotSec || a.OptimizeSec != b.OptimizeSec {
		t.Fatalf("virtual times diverged: first{total=%v pilot=%v opt=%v} second{total=%v pilot=%v opt=%v}",
			a.TotalSec, a.PilotSec, a.OptimizeSec,
			b.TotalSec, b.PilotSec, b.OptimizeSec)
	}
	if a.Iterations != b.Iterations || a.Jobs != b.Jobs ||
		a.MapOnlyJobs != b.MapOnlyJobs || a.MapReduceJobs != b.MapReduceJobs ||
		a.SwitchedJobs != b.SwitchedJobs || a.PlanChanges != b.PlanChanges {
		t.Fatalf("job counters diverged: first{it=%d jobs=%d mo=%d mr=%d sw=%d pc=%d} second{it=%d jobs=%d mo=%d mr=%d sw=%d pc=%d}",
			a.Iterations, a.Jobs, a.MapOnlyJobs, a.MapReduceJobs, a.SwitchedJobs, a.PlanChanges,
			b.Iterations, b.Jobs, b.MapOnlyJobs, b.MapReduceJobs, b.SwitchedJobs, b.PlanChanges)
	}
	if a.FinalPlan != b.FinalPlan {
		t.Fatalf("final plan diverged:\n  first:\n%s\n  second:\n%s", a.FinalPlan, b.FinalPlan)
	}
	if !reflect.DeepEqual(a.Evolution, b.Evolution) {
		t.Fatalf("plan evolution diverged:\n  first:  %+v\n  second: %+v", a.Evolution, b.Evolution)
	}
}
