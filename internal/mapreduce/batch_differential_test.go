package mapreduce

import (
	"fmt"
	"sync"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
)

// The differential tests in this file run each job twice over the same
// file — once with the input's columnar BatchMap installed, once with
// the per-record Map alone — and check both against the in-test
// references of shuffle_fastpath_test.go: same records, same order,
// same statistics. Which arm runs is decided by the input, never by an
// environment switch. The test names keep the arms they once compared:
// "Batch" is the BatchMap run, "Fast" the per-record Map run, and
// "Legacy" the Compare/Equal reference. The input tables are the
// adversarial key mixes:
// every scalar kind, strings with embedded 0x00 terminator bytes,
// nulls, -0.0, NaN, ±Inf, and integers beyond ±2^53.

// batchDiffPred is a filter over the mixed-kind key column and the
// integer sequence column that exercises every supported predicate
// shape: comparisons against a vecMixed column (nulls, booleans, 0x00
// strings, -0.0, NaN), an int column, and And/Or/Not combinators.
func batchDiffPred() expr.Expr {
	return &expr.Or{Terms: []expr.Expr{
		&expr.And{Terms: []expr.Expr{
			&expr.Cmp{Op: expr.GE, L: expr.NewCol("seq"), R: expr.NewLit(data.Int(100))},
			&expr.Cmp{Op: expr.LT, L: expr.NewCol("seq"), R: expr.NewLit(data.Int(1200))},
		}},
		&expr.Not{E: &expr.Cmp{Op: expr.LT, L: expr.NewCol("k"), R: expr.NewLit(data.String("k05"))}},
	}}
}

// wrapRec builds the {alias: rec} row a scan-shaped map emits — the
// per-record mirror of batch.Data.Wrapped.
func wrapRec(alias string, rec data.Value) data.Value {
	return data.Object(data.Field{Name: alias, Value: rec})
}

// filterWrap is the reference scan: the records pred keeps, wrapped as
// {t: rec}, in file order.
func filterWrap(recs []data.Value, pred expr.Expr) []data.Value {
	var out []data.Value
	ectx := &expr.Ctx{}
	for _, rec := range recs {
		if pred == nil || pred.Eval(ectx, rec).Truthy() {
			out = append(out, wrapRec("t", rec))
		}
	}
	return out
}

// scanInput is a scan→filter→project input (filter raw records with
// pred, wrap survivors as {t: rec}), with the batch arm installed when
// withBatch is set.
func scanInput(f *dfs.File, pred expr.Expr, withBatch bool) Input {
	in := Input{File: f, Map: func(mc *MapCtx, rec data.Value) {
		if pred == nil || pred.Eval(mc.ExprCtx(), rec).Truthy() {
			mc.Emit(wrapRec("t", rec))
		}
	}}
	if withBatch {
		in.BatchMap = ScanBatch("t", pred)
	}
	return in
}

// shuffleInput is the identity shuffle keyed by t.k over wrapped rows,
// with the batch arm installed when withBatch is set.
func shuffleInput(f *dfs.File, pred expr.Expr, withBatch bool) Input {
	key := data.MustParsePath("t.k")
	in := Input{File: f, Map: func(mc *MapCtx, rec data.Value) {
		if pred == nil || pred.Eval(mc.ExprCtx(), rec).Truthy() {
			row := wrapRec("t", rec)
			mc.EmitKV(key.Eval(row), "L", row)
		}
	}}
	if withBatch {
		in.BatchMap = ShuffleBatch("t", pred, []data.Path{key}, "L")
	}
	return in
}

// probeInput probes broadcast "b" by .k. Its batch arm probes through
// the split's cached key columns with ProbeNK, as jaql's batch probe
// chain does.
func probeInput(f *dfs.File, withBatch bool) Input {
	key := data.MustParsePath("k")
	in := Input{File: f, Map: func(mc *MapCtx, rec data.Value) {
		for _, m := range mc.Build("b").Probe(key.Eval(rec)) {
			mc.Emit(data.MergeObjects(rec, m))
		}
	}}
	if withBatch {
		keySig := batch.KeySig("", []data.Path{key})
		in.BatchMap = func(mc *MapCtx, blk *dfs.Block) bool {
			d := batch.For(blk.Aux(), blk.Records())
			sel, ok := d.Select(nil, "")
			if !ok {
				return false
			}
			ht := mc.Build("b")
			rows := d.Records()
			kc := d.Keys(keySig, "", []data.Path{key})
			for _, i := range sel {
				for _, m := range ht.ProbeNK(kc.NK[i]) {
					mc.Emit(data.MergeObjects(rows[i], m))
				}
			}
			return true
		}
	}
	return in
}

// checkScanBatch runs the scan with and without its batch arm and
// checks both against the reference filter.
func checkScanBatch(t *testing.T, f *dfs.File, env *Env, pred expr.Expr) {
	t.Helper()
	want := filterWrap(f.AllRecords(), pred)
	wantStats := referenceStats(env, want, int(f.NumRecords()), []data.Path{data.MustParsePath("t.k")})
	for _, withBatch := range []bool{true, false} {
		res, err := Run(env, Spec{
			Name:         fmt.Sprintf("diff-batch-scan-%v", withBatch),
			Inputs:       []Input{scanInput(f, pred, withBatch)},
			Output:       fmt.Sprintf("diff-batch-scanned-%v", withBatch),
			CollectStats: []data.Path{data.MustParsePath("t.k")},
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Output.AllRecords(), want)
		assertSameStats(t, res.Stats, wantStats)
	}
}

// checkShuffleBatch runs the shuffle with and without its batch arm and
// checks both against the Compare/Equal reference shuffle.
func checkShuffleBatch(t *testing.T, f *dfs.File, env *Env, pred expr.Expr) {
	t.Helper()
	key := data.MustParsePath("t.k")
	want := referenceShuffle(filterWrap(f.AllRecords(), pred), key, 4)
	wantStats := referenceStats(env, want, 0, []data.Path{key})
	for _, withBatch := range []bool{true, false} {
		res, err := Run(env, Spec{
			Name:         fmt.Sprintf("diff-batch-shuffle-%v", withBatch),
			Inputs:       []Input{shuffleInput(f, pred, withBatch)},
			Reduce:       groupSizeReduce,
			NumReducers:  4,
			Output:       fmt.Sprintf("diff-batch-shuffled-%v", withBatch),
			CollectStats: []data.Path{key},
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Output.AllRecords(), want)
		assertSameStats(t, res.Stats, wantStats)
	}
}

// checkProbeBatch runs the broadcast join with and without its batch
// arm and checks both against the nested-loop reference.
func checkProbeBatch(t *testing.T, probe, build *dfs.File, env *Env) {
	t.Helper()
	want := referenceProbe(probe.AllRecords(), build.AllRecords(), data.MustParsePath("k"))
	if len(want) == 0 {
		t.Fatal("join produces no rows; test is vacuous")
	}
	for _, withBatch := range []bool{true, false} {
		res, err := Run(env, Spec{
			Name:       fmt.Sprintf("diff-batch-bjoin-%v", withBatch),
			Inputs:     []Input{probeInput(probe, withBatch)},
			Broadcasts: []Broadcast{{Name: "b", File: build, KeyPaths: []data.Path{data.MustParsePath("k")}}},
			Output:     fmt.Sprintf("diff-batch-bjoined-%v", withBatch),
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Output.AllRecords(), want)
	}
}

// TestScanBatchVsFastVsLegacy checks the columnar scan→filter→project
// arm and the per-record map against the reference filter over every
// adversarial key table.
func TestScanBatchVsFastVsLegacy(t *testing.T) {
	t.Parallel()
	pred := batchDiffPred()
	for _, tbl := range keyTables {
		t.Run(tbl.name, func(t *testing.T) {
			env := benchEnv()
			f := tbl.build(env, "t", 1500)
			if got := len(filterWrap(f.AllRecords(), pred)); got == 0 || got == 1500 {
				t.Fatalf("filter not selective: %d of 1500 rows survive", got)
			}
			checkScanBatch(t, f, env, pred)
		})
	}
}

// TestShuffleBatchVsFastVsLegacy checks that the columnar shuffle arm —
// split-wide key evaluation, normalization, and partition hashing —
// and EmitKV both route, order and group every record as the reference
// shuffle does, over keys of every scalar kind.
func TestShuffleBatchVsFastVsLegacy(t *testing.T) {
	t.Parallel()
	env := benchEnv()
	checkShuffleBatch(t, mixedKeyTable(env, "t", 1500), env, batchDiffPred())
}

// TestShuffleBatchExtremeKeys covers the keys a float64 image alone
// cannot order (|int| > 2^53, NaN, ±Inf, -0.0, int64 extremes): the
// batch arm's cached encodings must route, sort and group them exactly
// like the reference.
func TestShuffleBatchExtremeKeys(t *testing.T) {
	t.Parallel()
	env := benchEnv()
	checkShuffleBatch(t, hugeKeyTable(env, "huge", 900), env, nil)
	checkShuffleBatch(t, extremeKeyTable(env, "extreme", 900), env, nil)
}

// TestProbeBatchVsFastVsLegacy checks that the vectorized probe (cached
// per-split encodings through ProbeNK) and the per-record probe both
// produce the nested-loop join over mixed-kind keys.
func TestProbeBatchVsFastVsLegacy(t *testing.T) {
	t.Parallel()
	env := benchEnv()
	checkProbeBatch(t, mixedKeyTable(env, "probe", 800), mixedKeyTable(env, "build", 120), env)
}

// TestProbeBatchExtremeKeys repeats the probe check over build and
// probe sides keyed by integers beyond ±2^53, NaN, ±Inf, -0.0 and the
// int64 extremes.
func TestProbeBatchExtremeKeys(t *testing.T) {
	t.Parallel()
	env := benchEnv()
	checkProbeBatch(t, hugeKeyTable(env, "hprobe", 800), hugeKeyTable(env, "hbuild", 120), env)
	checkProbeBatch(t, extremeKeyTable(env, "xprobe", 800), extremeKeyTable(env, "xbuild", 120), env)
}

// TestBatchMapMatchesMapPerBlock offers every block of each adversarial
// table to an input's BatchMap and, separately, feeds its records to
// the per-record Map, and requires identical task output: the same
// rows, or the same shuffle pairs (key, normalized key, tag, record)
// in every partition, in order.
func TestBatchMapMatchesMapPerBlock(t *testing.T) {
	t.Parallel()
	pred := batchDiffPred()
	for _, tbl := range keyTables {
		t.Run(tbl.name, func(t *testing.T) {
			env := benchEnv()
			f := tbl.build(env, "t", 1500)
			build := tbl.build(env, "b", 120)
			cases := []struct {
				name string
				spec Spec
			}{
				{"scan", Spec{Inputs: []Input{scanInput(f, pred, true)}}},
				{"shuffle", Spec{Inputs: []Input{shuffleInput(f, pred, true)}, Reduce: groupSizeReduce, NumReducers: 3}},
				{"probe", Spec{Inputs: []Input{probeInput(f, true)},
					Broadcasts: []Broadcast{{Name: "b", File: build, KeyPaths: []data.Path{data.MustParsePath("k")}}}}},
			}
			for _, c := range cases {
				builds := map[string]*HashTable{}
				for _, b := range c.spec.Broadcasts {
					ht, _, err := BuildHashTable(nil, b, b.File.Blocks())
					if err != nil {
						t.Fatal(err)
					}
					builds[b.Name] = ht
				}
				batchTask := MapTask{Input: c.spec.Inputs[0], Builds: builds, NumReducers: c.spec.NumReducers}
				rowTask := batchTask
				rowTask.Input.BatchMap = nil
				for bi, blk := range f.Blocks() {
					// A BatchMap that declines would hide behind the
					// per-record fallback; require it to take the block.
					taken := false
					inner := c.spec.Inputs[0].BatchMap
					batchTask.Input.BatchMap = func(mc *MapCtx, blk *dfs.Block) bool {
						taken = inner(mc, blk)
						return taken
					}
					got, err := batchTask.Run(nil, blk)
					if err != nil {
						t.Fatal(err)
					}
					if !taken {
						t.Fatalf("%s block %d: BatchMap declined", c.name, bi)
					}
					want, err := rowTask.Run(nil, blk)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRecords(t, got.Rows, want.Rows)
					for p := range want.Buckets {
						got, want := got.Buckets[p], want.Buckets[p]
						if len(got) != len(want) {
							t.Fatalf("%s block %d partition %d: %d pairs, per-record %d", c.name, bi, p, len(got), len(want))
						}
						for i := range want {
							if !data.Equal(got[i].Key, want[i].Key) || got[i].nk != want[i].nk ||
								got[i].Tag != want[i].Tag || !data.Equal(got[i].Rec, want[i].Rec) {
								t.Fatalf("%s block %d partition %d pair %d: %+v, per-record %+v", c.name, bi, p, i, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchCacheConcurrentJobs runs the same scan concurrently over
// one shared file from independent environments (each with its own
// single-threaded cluster simulator, sharing only the file system),
// so racing jobs contend on each split's auxiliary cache slot (CAS
// attach) and on lazy vector/selection construction under the split
// mutex — the sharing pattern of the concurrent query service. Run
// with -race, the test asserts the per-block cache is safe to share
// and that every job still observes identical output.
func TestBatchCacheConcurrentJobs(t *testing.T) {
	t.Parallel()
	pred := batchDiffPred()
	base := benchEnv()
	f := mixedKeyTable(base, "t", 1500)
	const jobs = 4
	results := make([][]data.Value, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			env := benchEnv()
			env.FS = base.FS // shared blocks, private simulator
			res, err := Run(env, Spec{
				Name: "diff-batch-concurrent",
				Inputs: []Input{{
					File: f,
					Map: func(mc *MapCtx, rec data.Value) {
						if pred.Eval(mc.ExprCtx(), rec).Truthy() {
							mc.Emit(wrapRec("t", rec))
						}
					},
					BatchMap: ScanBatch("t", pred),
				}},
				Output: "diff-batch-concurrent-out-" + string(rune('a'+j)),
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[j] = res.Output.AllRecords()
		}(j)
	}
	wg.Wait()
	for j := 1; j < jobs; j++ {
		assertSameRecords(t, results[0], results[j])
	}
}
