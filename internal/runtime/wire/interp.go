package wire

import (
	"fmt"
	"sort"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/rowops"
)

// KV is one shuffled record: join/group key, input tag, record.
type KV struct {
	Key data.Value
	Tag string
	Rec data.Value
}

// MapResult is what a worker returns for one map task. Rows is set for
// map-only jobs; Pairs (one slice per reduce partition) for shuffle
// jobs. CPUMap is the UDF cost of the map phase alone and CPUTotal the
// accumulated cost including the combiner — the controller replays
// both against the virtual clock exactly as the in-process path
// charges them.
type MapResult struct {
	Rows     []data.Value
	Pairs    [][]KV
	CPUMap   float64
	CPUTotal float64
}

// Table is the worker-side broadcast build: a hash index (bucket by
// key hash, equality recheck on probe, build scan order preserved)
// that returns probe results identical to the engine's normalized-key
// HashTable.
type Table struct {
	buckets map[uint64][]data.Value
	keys    []data.Path
}

// BuildTable indexes a broadcast build side from its decoded records,
// wrapping and filtering as declared. The build's UDF cost is
// discarded: the controller charges the one-time filtered-build
// preparation to the virtual clock itself (prepLatency at job start),
// so a worker rebuilding the table must not double-charge it.
func BuildTable(reg *expr.Registry, wrap string, filter expr.Expr, keys []data.Path, recs []data.Value) (*Table, error) {
	t := &Table{buckets: make(map[uint64][]data.Value), keys: keys}
	ectx := &expr.Ctx{Reg: reg}
	for _, rec := range recs {
		row := rec
		if wrap != "" {
			row = data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
		}
		if filter != nil && !filter.Eval(ectx, row).Truthy() {
			continue
		}
		k := compositeKey(row, keys)
		h := data.Hash64(k)
		t.buckets[h] = append(t.buckets[h], row)
	}
	if ectx.Err != nil {
		return nil, ectx.Err
	}
	return t, nil
}

// Probe returns the build rows whose key equals k, in build scan
// order.
func (t *Table) Probe(k data.Value) []data.Value {
	cands := t.buckets[data.Hash64(k)]
	if len(cands) == 0 {
		return nil
	}
	for i, r := range cands {
		if !data.Equal(compositeKey(r, t.keys), k) {
			out := make([]data.Value, 0, len(cands)-1)
			out = append(out, cands[:i]...)
			for _, r2 := range cands[i+1:] {
				if data.Equal(compositeKey(r2, t.keys), k) {
					out = append(out, r2)
				}
			}
			return out
		}
	}
	return cands
}

// compositeKey mirrors mapreduce.CompositeKey: a single path yields
// the bare value, multiple paths an array.
func compositeKey(row data.Value, paths []data.Path) data.Value {
	if len(paths) == 1 {
		return paths[0].Eval(row)
	}
	vals := make([]data.Value, len(paths))
	for i, p := range paths {
		vals[i] = p.Eval(row)
	}
	return data.Array(vals...)
}

// wrapFilter applies a source's alias wrapping and inline filter,
// returning null for filtered-out records (jaql.wrapFilter).
func wrapFilter(ectx *expr.Ctx, wrap string, filter expr.Expr, rec data.Value) data.Value {
	row := rec
	if wrap != "" {
		row = data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
	}
	if filter != nil && !filter.Eval(ectx, row).Truthy() {
		return data.Null()
	}
	return row
}

func decodeSource(s *SourceSpec) (string, expr.Expr, error) {
	if s == nil {
		return "", nil, nil
	}
	f, err := DecodeExpr(s.Filter)
	return s.Wrap, f, err
}

// RunMap executes the op's map phase over one decoded block. inputIdx
// selects the repartition side (0 = Left/"L", 1 = Right/"R");
// numReducers partitions shuffle output; runCombine folds each
// partition through the map-side combiner before returning.
func (op *OpSpec) RunMap(reg *expr.Registry, recs []data.Value, inputIdx, numReducers int, hasReduce, runCombine bool, builds map[string]*Table) (*MapResult, error) {
	res := &MapResult{}
	ectx := &expr.Ctx{Reg: reg}
	prune := DecodePrune(op.Prune)
	if hasReduce {
		if numReducers < 1 {
			return nil, fmt.Errorf("wire: shuffle map with %d reducers", numReducers)
		}
		res.Pairs = make([][]KV, numReducers)
	}
	emitKV := func(key data.Value, tag string, rec data.Value) {
		p := int(data.Hash64(key) % uint64(numReducers))
		res.Pairs[p] = append(res.Pairs[p], KV{Key: key, Tag: tag, Rec: rec})
	}

	switch op.Kind {
	case "scan":
		wrap, filter, err := decodeSource(op.Source)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			row := wrapFilter(ectx, wrap, filter, rec)
			if row.IsNull() {
				continue
			}
			if prune != nil {
				row = prune(row)
			}
			res.Rows = append(res.Rows, row)
		}

	case "chain":
		wrap, filter, err := decodeSource(op.Source)
		if err != nil {
			return nil, err
		}
		type step struct {
			table    *Table
			keys     []data.Path
			residual expr.Expr
		}
		steps := make([]step, len(op.Steps))
		for i, s := range op.Steps {
			t := builds[s.Build]
			if t == nil {
				return nil, fmt.Errorf("wire: chain step references unknown build %q", s.Build)
			}
			keys, err := DecodePaths(s.Keys)
			if err != nil {
				return nil, err
			}
			residual, err := DecodeExpr(s.Residual)
			if err != nil {
				return nil, err
			}
			steps[i] = step{table: t, keys: keys, residual: residual}
		}
		for _, rec := range recs {
			row := wrapFilter(ectx, wrap, filter, rec)
			if row.IsNull() {
				continue
			}
			if prune != nil {
				row = prune(row)
			}
			rows := []data.Value{row}
			for i := range steps {
				st := &steps[i]
				var next []data.Value
				for _, r := range rows {
					key := compositeKey(r, st.keys)
					for _, m := range st.table.Probe(key) {
						merged := data.MergeObjects(r, m)
						if st.residual != nil && !st.residual.Eval(ectx, merged).Truthy() {
							continue
						}
						next = append(next, merged)
					}
				}
				rows = next
				if len(rows) == 0 {
					break
				}
			}
			for _, r := range rows {
				if prune != nil {
					r = prune(r)
				}
				res.Rows = append(res.Rows, r)
			}
		}

	case "repartition":
		side, keyStrs, tag := op.Left, op.LeftKeys, "L"
		if inputIdx == 1 {
			side, keyStrs, tag = op.Right, op.RightKeys, "R"
		}
		wrap, filter, err := decodeSource(side)
		if err != nil {
			return nil, err
		}
		keys, err := DecodePaths(keyStrs)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			row := wrapFilter(ectx, wrap, filter, rec)
			if row.IsNull() {
				continue
			}
			if prune != nil {
				row = prune(row)
			}
			emitKV(compositeKey(row, keys), tag, row)
		}

	case "aggregate":
		groupBy, err := DecodeExprs(op.GroupBy)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			emitKV(rowops.GroupKey(ectx, groupBy, rec), "", rec)
		}

	default:
		return nil, fmt.Errorf("wire: unknown op kind %q", op.Kind)
	}

	res.CPUMap = ectx.CPUSeconds
	if runCombine {
		if op.Kind != "aggregate" {
			return nil, fmt.Errorf("wire: combiner requested for %s op", op.Kind)
		}
		sel, err := DecodeSelect(op.Select)
		if err != nil {
			return nil, err
		}
		for p, bucket := range res.Pairs {
			if len(bucket) == 0 {
				continue
			}
			SortKVs(bucket)
			var combined []KV
			for lo := 0; lo < len(bucket); {
				hi := lo + 1
				for hi < len(bucket) && data.Equal(bucket[hi].Key, bucket[lo].Key) {
					hi++
				}
				rows := make([]data.Value, hi-lo)
				for i := lo; i < hi; i++ {
					rows[i-lo] = bucket[i].Rec
				}
				combined = append(combined, KV{Key: bucket[lo].Key, Rec: rowops.PartialAggregate(ectx, sel, rows)})
				lo = hi
			}
			res.Pairs[p] = combined
		}
	}
	res.CPUTotal = ectx.CPUSeconds
	if ectx.Err != nil {
		return nil, ectx.Err
	}
	return res, nil
}

// SortKVs stably sorts pairs into reduce key order. data.Compare order
// equals the engine's normalized-key order (the fast-path contract),
// so grouping here matches the controller's grouping exactly.
func SortKVs(pairs []KV) {
	sort.SliceStable(pairs, func(i, k int) bool {
		return data.Compare(pairs[i].Key, pairs[k].Key) < 0
	})
}

// RunReduce executes the op's reduce phase over one partition's pairs,
// which must arrive sorted in reduce key order (the controller sorts
// before dispatch). Returns the emitted rows and the UDF CPU cost.
func (op *OpSpec) RunReduce(reg *expr.Registry, pairs []KV) ([]data.Value, float64, error) {
	ectx := &expr.Ctx{Reg: reg}
	prune := DecodePrune(op.Prune)
	var out []data.Value

	switch op.Kind {
	case "repartition":
		residual, err := DecodeExpr(op.Residual)
		if err != nil {
			return nil, 0, err
		}
		eachGroup(pairs, func(group []KV) {
			var ls, rs []data.Value
			for _, g := range group {
				if g.Tag == "L" {
					ls = append(ls, g.Rec)
				} else {
					rs = append(rs, g.Rec)
				}
			}
			for _, l := range ls {
				for _, r := range rs {
					merged := data.MergeObjects(l, r)
					if residual != nil && !residual.Eval(ectx, merged).Truthy() {
						continue
					}
					if prune != nil {
						merged = prune(merged)
					}
					out = append(out, merged)
				}
			}
		})

	case "aggregate":
		sel, err := DecodeSelect(op.Select)
		if err != nil {
			return nil, 0, err
		}
		eachGroup(pairs, func(group []KV) {
			rows := make([]data.Value, len(group))
			for i, g := range group {
				rows[i] = g.Rec
			}
			if op.Combine {
				out = append(out, rowops.MergeAggregates(sel, rows))
			} else {
				out = append(out, rowops.AggregateGroup(ectx, sel, rows))
			}
		})

	default:
		return nil, 0, fmt.Errorf("wire: op kind %q has no reduce phase", op.Kind)
	}

	if ectx.Err != nil {
		return nil, 0, ectx.Err
	}
	return out, ectx.CPUSeconds, nil
}

// eachGroup walks sorted pairs one key group at a time.
func eachGroup(pairs []KV, fn func(group []KV)) {
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && data.Equal(pairs[hi].Key, pairs[lo].Key) {
			hi++
		}
		fn(pairs[lo:hi])
		lo = hi
	}
}
