package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/stats"
)

// The tests in this file check the shuffle and the broadcast hash table
// against in-test references built the plain way: partition by
// data.Hash64, stable-sort each partition with data.Compare, group
// adjacent keys with data.Equal, and probe by a nested loop over
// data.Equal. The engine orders, groups and probes by normalized key
// instead, so any disagreement between the encoding's byte order and
// data.Compare shows up here as misordered, misgrouped or missing rows.

// keyTable writes n records {k: key(i), seq: i}.
func keyTable(env *Env, name string, n int, key func(i int) data.Value) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: key(i)},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

// mixedKeyTable writes records whose shuffle keys cycle through every
// scalar kind — including negative doubles, the empty string, strings
// containing 0x00 (the terminator byte that must be escaped), -0.0 and
// nulls — so sorting and grouping are exercised across kind boundaries.
func mixedKeyTable(env *Env, name string, n int) *dfs.File {
	return keyTable(env, name, n, func(i int) data.Value {
		switch i % 7 {
		case 0:
			return data.Int(int64(i%13 - 6))
		case 1:
			return data.Double(float64(i%11) - 5.5)
		case 2:
			return data.String(fmt.Sprintf("k%02d", i%9))
		case 3:
			return data.Bool(i%2 == 0)
		case 4:
			return data.Null()
		case 5:
			return data.String("a\x00" + string(rune('a'+i%3))) // embedded terminator byte
		default:
			return data.Double(math.Copysign(0, -1))
		}
	})
}

// hugeKeyTable mixes small keys with integers beyond ±2^53, whose
// float64 images collide although the integers differ.
func hugeKeyTable(env *Env, name string, n int) *dfs.File {
	return keyTable(env, name, n, func(i int) data.Value {
		if i%5 == 0 {
			return data.Int(int64(1)<<60 + int64(i%7))
		}
		return data.Int(int64(i % 17))
	})
}

// extremeKeyTable cycles through the numbers a float64 image alone
// cannot order or group: NaN, ±Inf, a real -0.0 next to 0, ±2^63 as
// ints and doubles, and ints and doubles around ±2^53.
func extremeKeyTable(env *Env, name string, n int) *dfs.File {
	keys := []data.Value{
		data.Double(math.NaN()), data.Double(-math.NaN()),
		data.Double(math.Inf(1)), data.Double(math.Inf(-1)),
		data.Double(math.Copysign(0, -1)), data.Int(0), data.Double(0),
		data.Int(math.MaxInt64), data.Int(math.MinInt64),
		data.Double(0x1p63), data.Double(-0x1p63),
		data.Int(1 << 53), data.Int(1<<53 + 1), data.Double(1 << 53),
		data.Int(-1<<53 - 1), data.Double(-1 << 53), data.Int(7),
	}
	return keyTable(env, name, n, func(i int) data.Value { return keys[i%len(keys)] })
}

// keyTables lists the adversarial key tables every reference test runs
// over.
var keyTables = []struct {
	name  string
	build func(env *Env, name string, n int) *dfs.File
}{
	{"mixed", mixedKeyTable},
	{"huge", hugeKeyTable},
	{"extreme", extremeKeyTable},
}

// withGroupSize tags a shuffled row with the size of its key group, so
// a grouping bug shows up in the rows even when their order survives.
func withGroupSize(rec data.Value, n int) data.Value {
	return data.MergeObjects(rec, data.Object(data.Field{Name: "n", Value: data.Int(int64(n))}))
}

// groupSizeReduce emits every group member tagged with the group size.
func groupSizeReduce(rc *ReduceCtx, key data.Value, group []Tagged) {
	for _, g := range group {
		rc.Emit(withGroupSize(g.Rec, len(group)))
	}
}

// referenceShuffle is what a shuffle of rows (in map submission order)
// keyed by key and reduced by groupSizeReduce must output.
func referenceShuffle(rows []data.Value, key data.Path, numReducers int) []data.Value {
	parts := make([][]data.Value, numReducers)
	for _, row := range rows {
		p := data.Hash64(key.Eval(row)) % uint64(numReducers)
		parts[p] = append(parts[p], row)
	}
	var out []data.Value
	for _, part := range parts {
		slices.SortStableFunc(part, func(a, b data.Value) int {
			return data.Compare(key.Eval(a), key.Eval(b))
		})
		for lo := 0; lo < len(part); {
			hi := lo + 1
			for hi < len(part) && data.Equal(key.Eval(part[hi]), key.Eval(part[lo])) {
				hi++
			}
			for _, row := range part[lo:hi] {
				out = append(out, withGroupSize(row, hi-lo))
			}
			lo = hi
		}
	}
	return out
}

// referenceStats collects statistics over rows in one collector, as the
// merged per-task partials of a job emitting rows must report them.
func referenceStats(env *Env, rows []data.Value, inputs int, paths []data.Path) *stats.Partial {
	c := stats.NewCollector(paths, 0)
	c.ObserveInputs(inputs)
	for _, row := range rows {
		c.ObserveOutput(row, env.VirtualSize(row))
	}
	return c.Partial()
}

// referenceProbe is the nested-loop join of probe rows against build
// rows on key equality, in probe order then build scan order.
func referenceProbe(probe, build []data.Value, key data.Path) []data.Value {
	var out []data.Value
	for _, p := range probe {
		for _, b := range build {
			if data.Equal(key.Eval(p), key.Eval(b)) {
				out = append(out, data.MergeObjects(p, b))
			}
		}
	}
	return out
}

// runShuffle executes the group-size shuffle keyed by .k with
// statistics collection on .k.
func runShuffle(t *testing.T, env *Env, f *dfs.File) *Result {
	t.Helper()
	key := data.MustParsePath("k")
	res, err := Run(env, Spec{
		Name: "diff-shuffle",
		Inputs: []Input{{File: f, Map: func(mc *MapCtx, rec data.Value) {
			mc.EmitKV(key.Eval(rec), "L", rec)
		}}},
		Reduce:       groupSizeReduce,
		NumReducers:  4,
		Output:       "diff-shuffled",
		CollectStats: []data.Path{key},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameRecords(t *testing.T, got, want []data.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count diverged: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !data.Equal(got[i], want[i]) {
			t.Fatalf("record %d diverged:\n  got:  %v\n  want: %v", i, got[i], want[i])
		}
	}
}

func assertSameStats(t *testing.T, got, want *stats.Partial) {
	t.Helper()
	if got.InRecords != want.InRecords || got.OutRecords != want.OutRecords || got.OutBytes != want.OutBytes {
		t.Fatalf("partial counters diverged: got{in=%d out=%d bytes=%d} want{in=%d out=%d bytes=%d}",
			got.InRecords, got.OutRecords, got.OutBytes,
			want.InRecords, want.OutRecords, want.OutBytes)
	}
	ge, we := got.Exact(), want.Exact()
	if ge.Card != we.Card || ge.AvgRecSize != we.AvgRecSize {
		t.Fatalf("exact stats diverged: got{card=%v avg=%v} want{card=%v avg=%v}",
			ge.Card, ge.AvgRecSize, we.Card, we.AvgRecSize)
	}
	if len(ge.Cols) != len(we.Cols) {
		t.Fatalf("column stats diverged: got %d cols, want %d", len(ge.Cols), len(we.Cols))
	}
	for path, gc := range ge.Cols {
		wc, ok := we.Cols[path]
		if !ok {
			t.Fatalf("column %q present only in got stats", path)
		}
		if gc.NDV != wc.NDV || !data.Equal(gc.Min, wc.Min) || !data.Equal(gc.Max, wc.Max) {
			t.Fatalf("column %q stats diverged: got{ndv=%v min=%v max=%v} want{ndv=%v min=%v max=%v}",
				path, gc.NDV, gc.Min, gc.Max, wc.NDV, wc.Min, wc.Max)
		}
	}
}

// checkShuffle runs the shuffle over a table and checks rows and
// statistics against the Compare/Equal reference.
func checkShuffle(t *testing.T, build func(env *Env, name string, n int) *dfs.File, n int) {
	t.Helper()
	env := benchEnv()
	f := build(env, "t", n)
	res := runShuffle(t, env, f)
	key := data.MustParsePath("k")
	want := referenceShuffle(f.AllRecords(), key, 4)
	if res.OutRecords != int64(n) {
		t.Fatalf("out records %d, want %d", res.OutRecords, n)
	}
	assertSameRecords(t, res.Output.AllRecords(), want)
	assertSameStats(t, res.Stats, referenceStats(env, want, 0, []data.Path{key}))
}

// TestShuffleFastVsLegacyIdentical checks the normalized-key shuffle
// against the legacy algorithm — stable sort by data.Compare, group by
// data.Equal — over keys of every scalar kind.
func TestShuffleFastVsLegacyIdentical(t *testing.T) {
	checkShuffle(t, mixedKeyTable, 1500)
}

// TestShuffleFallbackKeysIdentical covers the keys that used to need a
// Compare-based fallback sort: integers beyond ±2^53, NaN, ±Inf, -0.0
// and the int64 extremes. They must order and group exactly as the
// legacy algorithm does.
func TestShuffleFallbackKeysIdentical(t *testing.T) {
	checkShuffle(t, hugeKeyTable, 900)
	checkShuffle(t, extremeKeyTable, 900)
}

// TestBroadcastJoinFastVsLegacyIdentical checks the normalized-key hash
// table used by map-side joins against a nested-loop join on
// data.Equal, over every adversarial key table.
func TestBroadcastJoinFastVsLegacyIdentical(t *testing.T) {
	key := data.MustParsePath("k")
	for _, tbl := range keyTables {
		t.Run(tbl.name, func(t *testing.T) {
			env := benchEnv()
			probe := tbl.build(env, "probe", 800)
			build := tbl.build(env, "build", 120)
			res, err := Run(env, Spec{
				Name: "diff-bjoin",
				Inputs: []Input{{File: probe, Map: func(mc *MapCtx, rec data.Value) {
					for _, m := range mc.Build("b").Probe(key.Eval(rec)) {
						mc.Emit(data.MergeObjects(rec, m))
					}
				}}},
				Broadcasts: []Broadcast{{Name: "b", File: build, KeyPaths: []data.Path{key}}},
				Output:     "diff-bjoined",
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.OutRecords == 0 {
				t.Fatal("join produced no rows; test is vacuous")
			}
			assertSameRecords(t, res.Output.AllRecords(), referenceProbe(probe.AllRecords(), build.AllRecords(), key))
		})
	}
}

// TestSortPairsByKeyMatchesCompareOrder asserts SortPairs yields the
// permutation a stable sort by data.Compare yields on the same batch —
// including among equal keys, by stability — over keys that mix kinds
// and numeric edge cases. Every other pair arrives without its
// normalized key, as pairs decoded from a shuffle frame do.
func TestSortPairsByKeyMatchesCompareOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	edge := []data.Value{
		data.Double(math.NaN()), data.Double(math.Inf(-1)), data.Double(math.Copysign(0, -1)),
		data.Int(1 << 53), data.Int(1<<53 + 1), data.Double(1 << 53), data.Int(math.MaxInt64),
		data.Double(0x1p63), data.Int(math.MinInt64),
	}
	mkKey := func() data.Value {
		switch rng.Intn(7) {
		case 0:
			return data.Int(int64(rng.Intn(21) - 10))
		case 1:
			return data.Double(rng.NormFloat64())
		case 2:
			return data.String(fmt.Sprintf("s%d", rng.Intn(8)))
		case 3:
			return data.Bool(rng.Intn(2) == 0)
		case 4:
			return data.Null()
		case 5:
			return edge[rng.Intn(len(edge))]
		default:
			return data.Array(edge[rng.Intn(len(edge))], data.String("x"))
		}
	}
	const n = 2000
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		key := mkKey()
		rec := data.Object(data.Field{Name: "seq", Value: data.Int(int64(i))})
		p := Pair{Key: key, Tag: "T", Rec: rec}
		if i%2 == 0 {
			p.nk = data.NormKey(key)
		}
		pairs = append(pairs, p)
	}
	want := slices.Clone(pairs)
	slices.SortStableFunc(want, func(a, b Pair) int { return data.Compare(a.Key, b.Key) })
	SortPairs(pairs)
	for i := range pairs {
		if !data.Equal(pairs[i].Rec, want[i].Rec) {
			t.Fatalf("permutation diverged at %d: key %v rec %v, reference key %v rec %v",
				i, pairs[i].Key, pairs[i].Rec, want[i].Key, want[i].Rec)
		}
	}
}

// BenchmarkSortPairsByKey measures the normalized-key sort — the
// comparator on the shuffle's critical path (CI tracks its allocs/op).
func BenchmarkSortPairsByKey(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 4096
	base := make([]Pair, n)
	for i := range base {
		key := data.Int(int64(rng.Intn(1 << 20)))
		base[i] = Pair{Key: key, nk: data.NormKey(key), Tag: "T"}
	}
	scratch := make([]Pair, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		SortPairs(scratch)
	}
}
