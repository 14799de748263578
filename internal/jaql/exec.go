package jaql

import (
	"fmt"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/plan"
	"dyno/internal/runtime/wire"
	"dyno/internal/stats"
)

// ExecOpts configures the execution of one unit.
type ExecOpts struct {
	// StatsPaths lists the attributes to collect output statistics for
	// (the join columns still needed by the unexecuted remainder,
	// §5.4). Nil disables collection.
	StatsPaths []data.Path
	KMVSize    int
	OutputPath string
	// Prune, when non-nil, is applied to every row a job emits or
	// shuffles (projection pushdown: rows carry only the fields the
	// query references). Build with NewPruner.
	Prune func(data.Value) data.Value
	// PruneLive is the live-column map Prune was built from, carried in
	// raw form so remote task executors can serialize it. Set it
	// whenever Prune is set; leave both nil to disable pruning.
	PruneLive map[string]map[string]bool
	// SwitchMmax, when positive, enables the dynamic join operator the
	// paper plans as future work (§8): a repartition join whose
	// smaller input is already materialized and actually fits within
	// this budget is converted to a broadcast join at submit time,
	// without waiting for a re-optimization point. Inputs whose true
	// size is unknown (unfiltered base files with predicates) are
	// judged by their file size, so the conversion is always safe.
	SwitchMmax float64
}

// Run is a submitted unit execution.
type Run struct {
	Unit *Unit
	Job  *mapreduce.Job
	Sub  *cluster.Submission
}

// SubmitUnit translates a ready unit into a MapReduce job and submits
// it to the cluster.
func SubmitUnit(env *mapreduce.Env, u *Unit, opts ExecOpts) (*Run, error) {
	if u.Done() {
		return nil, fmt.Errorf("jaql: unit %s already executed", u.Name)
	}
	if !u.Ready() {
		return nil, fmt.Errorf("jaql: unit %s has unexecuted dependencies", u.Name)
	}
	spec, err := buildSpec(env, u, opts)
	if err != nil {
		return nil, err
	}
	job, sub, err := mapreduce.Submit(env, spec)
	if err != nil {
		return nil, err
	}
	return &Run{Unit: u, Job: job, Sub: sub}, nil
}

// Finalize turns a completed run into the unit's output relation. The
// relation's statistics come from the job's online statistics
// collection (exact, since the whole input was processed).
func (r *Run) Finalize(relName string) (*plan.Rel, error) {
	if r.Sub.Err() != nil {
		return nil, r.Sub.Err()
	}
	res, err := r.Job.Result()
	if err != nil {
		return nil, err
	}
	rel := &plan.Rel{
		Name:        relName,
		Aliases:     append([]string(nil), r.Unit.Aliases...),
		File:        res.Output,
		Uncertainty: r.Unit.Uncertainty,
	}
	if res.Stats != nil {
		rel.Stats = res.Stats.Exact()
	} else {
		rel.Stats = stats.TableStats{
			Card:       float64(res.OutRecords),
			AvgRecSize: avgSize(res),
		}
	}
	r.Unit.OutRel = rel
	r.Unit.Result = res
	return rel, nil
}

func avgSize(res *mapreduce.Result) float64 {
	if res.OutRecords == 0 {
		return 0
	}
	return float64(res.OutputVirtual) / float64(res.OutRecords)
}

// buildSpec assembles the MapReduce spec for a unit.
func buildSpec(env *mapreduce.Env, u *Unit, opts ExecOpts) (mapreduce.Spec, error) {
	out := opts.OutputPath
	if out == "" {
		out = "tmp/" + u.Name
	}
	spec := mapreduce.Spec{
		Name:         u.Name,
		Output:       out,
		CollectStats: opts.StatsPaths,
		KMVSize:      opts.KMVSize,
	}
	prune := opts.Prune
	switch u.Kind {
	case UnitScan:
		file, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		in := mapreduce.Input{File: file, Map: scanMap(sourceRowFn(u.Probe, file), prune)}
		if prune == nil {
			if alias, pred, ok := batchSource(u.Probe); ok {
				in.BatchMap = mapreduce.ScanBatch(alias, pred)
			}
		}
		spec.Inputs = []mapreduce.Input{in}
		if err := attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
			return scanOp(u.Probe, opts.PruneLive)
		}); err != nil {
			return spec, err
		}
	case UnitRepartition:
		j := u.Chain[0]
		lf, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		rf, err := u.Right.file()
		if err != nil {
			return spec, err
		}
		if opts.SwitchMmax > 0 {
			// Dynamic join operator: now that both inputs exist as
			// files, re-check whether one side truly fits in memory.
			probe, build := u.Probe, u.Right
			pf, bf := lf, rf
			if float64(pf.Size()) < float64(bf.Size()) {
				probe, build = build, probe
				pf, bf = bf, pf
			}
			if float64(bf.Size()) <= opts.SwitchMmax {
				u.Switched = true
				steps := []buildStep{{src: build, join: j}}
				if err := attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
					return chainOp(probe, steps, opts.PruneLive)
				}); err != nil {
					return spec, err
				}
				return broadcastSpec(spec, probe, pf, steps, prune)
			}
		}
		// Size the reduce phase from the estimated shuffle volume (both
		// filtered inputs are shuffled in full), the way stats-driven
		// engines do, rather than from raw input bytes.
		spec.NumReducers = reducersFor(env, j.Left.Bytes()+j.Right.Bytes())
		lKeys := probeKeyPaths(j, u.Probe.aliases())
		rKeys := probeKeyPaths(j, u.Right.aliases())
		spec.Inputs = []mapreduce.Input{
			{File: lf, Map: shuffleMap(sourceRowFn(u.Probe, lf), u.Probe, lf, lKeys, "L", prune)},
			{File: rf, Map: shuffleMap(sourceRowFn(u.Right, rf), u.Right, rf, rKeys, "R", prune)},
		}
		if prune == nil {
			if alias, pred, ok := batchSource(u.Probe); ok {
				spec.Inputs[0].BatchMap = mapreduce.ShuffleBatch(alias, pred, lKeys, "L")
			}
			if alias, pred, ok := batchSource(u.Right); ok {
				spec.Inputs[1].BatchMap = mapreduce.ShuffleBatch(alias, pred, rKeys, "R")
			}
		}
		residual := expr.Conjoin(j.Residual)
		if err := attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
			return repartitionOp(u, residual, wire.EncodePaths(lKeys), wire.EncodePaths(rKeys), opts.PruneLive)
		}); err != nil {
			return spec, err
		}
		if residual != nil {
			// The residual sees merged L+R rows; a merge of the two
			// mapped samples has the layout reduce-side rows will have.
			ls, lok := mapSample(u.Probe, lf, prune)
			rs, rok := mapSample(u.Right, rf, prune)
			if lok && rok {
				residual = expr.Compile(residual, data.MergeObjects(ls, rs))
			}
		}
		spec.Reduce = func(rc *mapreduce.ReduceCtx, key data.Value, group []mapreduce.Tagged) {
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
					if residual != nil && !residual.Eval(rc.ExprCtx(), merged).Truthy() {
						continue
					}
					if prune != nil {
						merged = prune(merged)
					}
					rc.Emit(merged)
				}
			}
		}
	case UnitBroadcastChain:
		pf, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		steps := make([]buildStep, len(u.Chain))
		for i, m := range u.Chain {
			steps[i] = buildStep{src: u.Builds[i], join: m}
		}
		if err := attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
			return chainOp(u.Probe, steps, opts.PruneLive)
		}); err != nil {
			return spec, err
		}
		return broadcastSpec(spec, u.Probe, pf, steps, prune)
	}
	return spec, nil
}

// firstRecord returns the first record of a file, for use as a schema
// sample when compiling per-job expressions.
func firstRecord(f *dfs.File) (data.Value, bool) { return f.FirstRecord() }

// wrapSample applies a source's alias wrapping (but not its filter) to
// a raw record, yielding the row shape the source's expressions see.
func wrapSample(s Source, rec data.Value) data.Value {
	if s.Wrap != "" {
		return data.Object(data.Field{Name: s.Wrap, Value: rec})
	}
	return rec
}

// mapSample returns a sample row with the layout the source's map
// function emits: the first input record, wrapped and pruned. The
// filter is deliberately not applied — it selects rows, it does not
// change their shape.
func mapSample(s Source, f *dfs.File, prune func(data.Value) data.Value) (data.Value, bool) {
	rec, ok := firstRecord(f)
	if !ok {
		return data.Null(), false
	}
	row := wrapSample(s, rec)
	if prune != nil {
		row = prune(row)
	}
	return row, true
}

// compileSource returns a copy of the source whose filter is compiled
// against the input file's first record (schema-resolved column
// access). Compilation never changes results — accessors verify field
// positions per record and fall back to name lookup — so heterogeneous
// inputs and empty files are handled transparently.
func compileSource(s Source, f *dfs.File) Source {
	if s.Filter == nil {
		return s
	}
	rec, ok := firstRecord(f)
	if !ok {
		return s
	}
	s.Filter = expr.Compile(s.Filter, wrapSample(s, rec))
	return s
}

// buildStep pairs a broadcast build source with the join it serves.
type buildStep struct {
	src  Source
	join *plan.Join
}

// probeStep is one compiled link of a broadcast probe chain: the build
// table's registered name, the probe-side key columns, and the join's
// residual filter.
type probeStep struct {
	name     string
	keys     []data.Path
	keyAccs  []*data.Accessor // nil = interpret keys (empty probe input)
	residual expr.Expr
}

// broadcastSpec assembles a map-only hash-join job: the probe input
// streams through the chain of builds, merging and applying each
// join's residual filters inline. The probe filter, per-step key
// paths, and residuals are compiled once per job against the probe
// input's first (wrapped, pruned) record; key paths and residual
// columns referencing build-side aliases simply compile without
// positional hints and resolve through the accessor's name fallback,
// no slower than the interpreted path.
func broadcastSpec(spec mapreduce.Spec, probe Source, probeFile *dfs.File, steps []buildStep, prune func(data.Value) data.Value) (mapreduce.Spec, error) {
	plans := make([]probeStep, len(steps))
	probeAliases := append([]string(nil), probe.aliases()...)
	for i, st := range steps {
		name := fmt.Sprintf("b%d", i)
		bf, err := st.src.file()
		if err != nil {
			return spec, err
		}
		spec.Broadcasts = append(spec.Broadcasts, mapreduce.Broadcast{
			Name:     name,
			File:     bf,
			KeyPaths: probeKeyPaths(st.join, st.src.aliases()),
			Wrap:     st.src.Wrap,
			Filter:   st.src.Filter,
		})
		plans[i] = probeStep{
			name:     name,
			keys:     probeKeyPaths(st.join, probeAliases),
			residual: expr.Conjoin(st.join.Residual),
		}
		probeAliases = append(probeAliases, st.src.aliases()...)
	}
	if sample, ok := mapSample(probe, probeFile, prune); ok {
		for i := range plans {
			plans[i].keyAccs = data.CompileAccessors(plans[i].keys, sample)
			if plans[i].residual != nil {
				plans[i].residual = expr.Compile(plans[i].residual, sample)
			}
		}
	}
	probeRow := sourceRowFn(probe, probeFile)
	spec.Inputs = []mapreduce.Input{{File: probeFile, Map: func(mc *mapreduce.MapCtx, rec data.Value) {
		row := probeRow(mc.ExprCtx(), rec)
		if row.IsNull() {
			return
		}
		if prune != nil {
			row = prune(row)
		}
		rows := []data.Value{row}
		for i := range plans {
			st := &plans[i]
			ht := mc.Build(st.name)
			var next []data.Value
			for _, r := range rows {
				var key data.Value
				if st.keyAccs != nil {
					key = mapreduce.CompositeKeyCompiled(r, st.keyAccs)
				} else {
					key = mapreduce.CompositeKey(r, st.keys)
				}
				for _, m := range ht.Probe(key) {
					merged := data.MergeObjects(r, m)
					if st.residual != nil && !st.residual.Eval(mc.ExprCtx(), merged).Truthy() {
						continue
					}
					next = append(next, merged)
				}
			}
			rows = next
			if len(rows) == 0 {
				return
			}
		}
		for _, r := range rows {
			if prune != nil {
				r = prune(r)
			}
			mc.Emit(r)
		}
	}}}
	if prune == nil {
		if alias, pred, ok := batchSource(probe); ok {
			spec.Inputs[0].BatchMap = batchProbeChain(alias, pred, plans)
		}
	}
	return spec, nil
}

// batchProbeChain builds the batch arm of a broadcast-chain probe:
// filter the split column-wise, then drive each surviving row through
// the build chain. The first step's probe keys come from the split's
// cached key columns — normalized, interned, and shared across jobs —
// so the hash-table lookup is a direct map probe with no per-record
// key evaluation or normalization; later steps see chain-merged rows
// that exist only within this call and probe exactly like the
// per-record path, reusing two scratch buffers across rows. Residuals
// run per merged row in the same order as the per-record path, so UDF
// cost accounting and emitted rows are identical. Returns nil when the
// predicate is not batch-evaluable.
func batchProbeChain(alias string, pred expr.Expr, plans []probeStep) mapreduce.BatchFunc {
	if pred != nil && !batch.Supported(pred) {
		return nil
	}
	sig := ""
	if pred != nil {
		sig = pred.String()
	}
	keySig := batch.KeySig(alias, plans[0].keys)
	return func(mc *mapreduce.MapCtx, blk *dfs.Block) bool {
		d := batch.For(blk.Aux(), blk.Records())
		sel, ok := d.Select(pred, sig)
		if !ok {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		rows := d.Wrapped(alias)
		st0 := &plans[0]
		ht0 := mc.Build(st0.name)
		kc := d.Keys(keySig, alias, st0.keys)
		var cur, next []data.Value
		for _, i := range sel {
			matches := ht0.ProbeNK(kc.NK[i])
			if len(matches) == 0 {
				continue
			}
			cur = cur[:0]
			for _, m := range matches {
				merged := data.MergeObjects(rows[i], m)
				if st0.residual != nil && !st0.residual.Eval(mc.ExprCtx(), merged).Truthy() {
					continue
				}
				cur = append(cur, merged)
			}
			for si := 1; si < len(plans) && len(cur) > 0; si++ {
				st := &plans[si]
				ht := mc.Build(st.name)
				next = next[:0]
				for _, r := range cur {
					var key data.Value
					if st.keyAccs != nil {
						key = mapreduce.CompositeKeyCompiled(r, st.keyAccs)
					} else {
						key = mapreduce.CompositeKey(r, st.keys)
					}
					for _, m := range ht.Probe(key) {
						merged := data.MergeObjects(r, m)
						if st.residual != nil && !st.residual.Eval(mc.ExprCtx(), merged).Truthy() {
							continue
						}
						next = append(next, merged)
					}
				}
				cur, next = next, cur
			}
			for _, r := range cur {
				mc.Emit(r)
			}
		}
		return true
	}
}

// reducersFor converts an estimated shuffle volume to a reduce-task
// count, bounded by twice the cluster's reduce slots.
func reducersFor(env *mapreduce.Env, shuffleBytes float64) int {
	per := float64(env.BytesPerReducer)
	if per <= 0 {
		per = mapreduce.DefaultBytesPerReducer
	}
	n := int(shuffleBytes / per)
	if n < 1 {
		n = 1
	}
	if max := env.ClusterConfig().ReduceSlots() * 2; n > max && max > 0 {
		n = max
	}
	return n
}

// wrapFilter applies a source's alias wrapping and inline filter; it
// returns null when the row is filtered out.
func wrapFilter(ectx *expr.Ctx, s Source, rec data.Value) data.Value {
	row := rec
	if s.Wrap != "" {
		row = data.ObjectFromSorted([]data.Field{{Name: s.Wrap, Value: rec}})
	}
	if s.Filter != nil && !s.Filter.Eval(ectx, row).Truthy() {
		return data.Null()
	}
	return row
}

// rowFn maps a raw input record to the source's wrapped, filtered row;
// null means the record was filtered out.
type rowFn func(*expr.Ctx, data.Value) data.Value

// sourceRowFn builds a source's per-record row function. With a filter
// whose columns are all rooted at the wrap alias, the filter is
// alias-stripped and evaluated on the raw record before wrapping, so
// records the predicate drops never allocate the wrap object; the
// predicate sees exactly the values it would see through the wrapped
// row (see expr.StripAlias), and surviving rows are wrapped
// identically, so emitted rows are bit-identical either way. Other
// shapes keep the wrap-then-filter order, with the filter compiled
// against the file's first wrapped record.
func sourceRowFn(s Source, f *dfs.File) rowFn {
	if s.Filter != nil && s.Wrap != "" {
		if stripped, ok := expr.StripAlias(s.Filter, s.Wrap); ok {
			if rec, okr := firstRecord(f); okr {
				stripped = expr.Compile(stripped, rec)
			}
			wrap := s.Wrap
			return func(ectx *expr.Ctx, rec data.Value) data.Value {
				if !stripped.Eval(ectx, rec).Truthy() {
					return data.Null()
				}
				return data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
			}
		}
	}
	s = compileSource(s, f)
	return func(ectx *expr.Ctx, rec data.Value) data.Value {
		return wrapFilter(ectx, s, rec)
	}
}

// batchSource reduces a source to the (alias, raw-record predicate)
// form the columnar batch arm evaluates: pred is the source filter
// rewritten to apply directly to stored records (alias-stripped for
// wrapped scans, as-is for pre-wrapped intermediates), uncompiled so
// the batch layer can inspect its shape. ok is false when no such form
// exists (a filter mentioning columns outside the wrap alias); whether
// pred itself is batch-evaluable is decided by the batch builders,
// which return nil for unsupported shapes. The per-record map function
// always remains installed as the fallback, so declining here only
// costs the acceleration.
func batchSource(s Source) (alias string, pred expr.Expr, ok bool) {
	if s.Filter == nil {
		return s.Wrap, nil, true
	}
	if s.Wrap == "" {
		return "", s.Filter, true
	}
	if stripped, sok := expr.StripAlias(s.Filter, s.Wrap); sok {
		return s.Wrap, stripped, true
	}
	return "", nil, false
}

// scanMap emits wrapped, filtered rows.
func scanMap(row rowFn, prune func(data.Value) data.Value) mapreduce.MapFunc {
	return func(mc *mapreduce.MapCtx, rec data.Value) {
		if row := row(mc.ExprCtx(), rec); !row.IsNull() {
			if prune != nil {
				row = prune(row)
			}
			mc.Emit(row)
		}
	}
}

// shuffleMap emits wrapped, filtered rows keyed for a repartition join.
// The key paths are compiled once against the input's first (wrapped,
// pruned) record.
func shuffleMap(row rowFn, s Source, f *dfs.File, keys []data.Path, tag string, prune func(data.Value) data.Value) mapreduce.MapFunc {
	var keyAccs []*data.Accessor
	if sample, ok := mapSample(s, f, prune); ok {
		keyAccs = data.CompileAccessors(keys, sample)
	}
	return func(mc *mapreduce.MapCtx, rec data.Value) {
		row := row(mc.ExprCtx(), rec)
		if row.IsNull() {
			return
		}
		if prune != nil {
			row = prune(row)
		}
		var key data.Value
		if keyAccs != nil {
			key = mapreduce.CompositeKeyCompiled(row, keyAccs)
		} else {
			key = mapreduce.CompositeKey(row, keys)
		}
		mc.EmitKV(key, tag, row)
	}
}

// NewPruner builds a row transform for projection pushdown: every
// alias sub-record keeps only its live fields (a nil set keeps the
// whole record).
func NewPruner(live map[string]map[string]bool) func(data.Value) data.Value {
	if live == nil {
		return nil
	}
	// Field slices filtered from a sorted object stay sorted and
	// duplicate-free, so the rebuilt objects can retain them directly.
	return func(row data.Value) data.Value {
		fields := row.Fields()
		out := make([]data.Field, 0, len(fields))
		for _, f := range fields {
			set, known := live[f.Name]
			if !known || set == nil {
				out = append(out, f)
				continue
			}
			inner := f.Value.Fields()
			kept := make([]data.Field, 0, len(set))
			for _, g := range inner {
				if set[g.Name] {
					kept = append(kept, g)
				}
			}
			out = append(out, data.Field{Name: f.Name, Value: data.ObjectFromSorted(kept)})
		}
		return data.ObjectFromSorted(out)
	}
}
