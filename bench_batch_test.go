package dyno_test

import (
	"fmt"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/expr"
)

// The batch benchmarks measure the columnar layer's per-split cost
// from a cold cache: each iteration builds a fresh split image and
// runs one filter→project or key→probe pass over it, so allocs/op is
// the whole per-split budget (the steady state is cheaper still — warm
// splits hit the block cache and pay only map probes). The ceilings in
// BENCH_allocs_baseline.txt hold because the batch layer allocates per
// split and per column, never per row.

const batchBenchRows = 4096

// batchBenchRecords builds a scan-shaped split: an int id, a
// low-cardinality string segment, and a float amount.
func batchBenchRecords() []data.Value {
	recs := make([]data.Value, batchBenchRows)
	for i := range recs {
		recs[i] = data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "seg", Value: data.String(fmt.Sprintf("SEG%d", i%5))},
			data.Field{Name: "amt", Value: data.Double(float64(i%1000) / 10)},
		)
	}
	return recs
}

// BenchmarkBatchFilterProject runs the columnar scan→filter→project
// pipeline over a fresh split per iteration: extract the predicate's
// columns, evaluate the predicate column-wise into a selection vector,
// and wrap the surviving rows from the per-split slab.
func BenchmarkBatchFilterProject(b *testing.B) {
	recs := batchBenchRecords()
	pred := &expr.And{Terms: []expr.Expr{
		&expr.Cmp{Op: expr.EQ, L: expr.NewCol("seg"), R: expr.NewLit(data.String("SEG3"))},
		&expr.Cmp{Op: expr.LT, L: expr.NewCol("amt"), R: expr.NewLit(data.Double(75))},
	}}
	if !batch.Supported(pred) {
		b.Fatal("benchmark predicate not batch-supported")
	}
	sig := pred.String()
	b.ReportAllocs()
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		d := batch.For(nil, recs)
		sel, ok := d.Select(pred, sig)
		if !ok {
			b.Fatal("predicate declined")
		}
		rows := d.Wrapped("t")
		for _, j := range sel {
			if rows[j].EncodedSize() == 0 {
				b.Fatal("empty row")
			}
		}
		kept = len(sel)
	}
	b.ReportMetric(float64(kept), "rows-kept")
}

// BenchmarkBatchHashProbe runs the vectorized hash-join probe over a
// fresh split per iteration: evaluate the key column, normalize every
// key into the split's one-allocation slab, and probe a prebuilt
// normalized-key index (the structure mapreduce's broadcast tables
// use).
func BenchmarkBatchHashProbe(b *testing.B) {
	probe := batchBenchRecords()
	keyPath := data.MustParsePath("id")
	index := make(map[string][]data.Value, 512)
	var buf []byte
	for i := 0; i < 512; i++ {
		k := data.Int(int64(i * 8 % batchBenchRows))
		buf = data.AppendNormKey(buf[:0], k)
		index[string(buf)] = append(index[string(buf)], data.Object(
			data.Field{Name: "bid", Value: k},
		))
	}
	keySig := batch.KeySig("", []data.Path{keyPath})
	b.ReportAllocs()
	b.ResetTimer()
	var matches int
	for i := 0; i < b.N; i++ {
		d := batch.For(nil, probe)
		sel, _ := d.Select(nil, "")
		kc := d.Keys(keySig, "", []data.Path{keyPath})
		matches = 0
		for _, j := range sel {
			matches += len(index[kc.NK[j]])
		}
	}
	b.ReportMetric(float64(matches), "matches")
}

// BenchmarkIntern measures the interner's steady state: every string
// already canonical, so each op is one shard probe with no allocation
// (the bytes→string lookup uses the compiler's no-alloc map-index
// form). One op interns 512 distinct keys.
func BenchmarkIntern(b *testing.B) {
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("intern-bench-key-%03d", i))
		batch.InternBytes(keys[i]) // warm: make every key canonical
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if batch.InternBytes(k) == "" {
				b.Fatal("empty intern result")
			}
		}
	}
}
