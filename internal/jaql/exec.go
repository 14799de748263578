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
		return spec, Scan(env, &spec, u.Probe, prune, opts.PruneLive)
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
				return broadcastSpec(env, spec, probe, pf, []buildStep{{src: build, join: j}}, prune, opts.PruneLive)
			}
		}
		// Size the reduce phase from the estimated shuffle volume (both
		// filtered inputs are shuffled in full), the way stats-driven
		// engines do, rather than from raw input bytes.
		spec.NumReducers = reducersFor(env, j.Left.Bytes()+j.Right.Bytes())
		lKeys := probeKeyPaths(j, u.Probe.aliases())
		rKeys := probeKeyPaths(j, u.Right.aliases())
		lFirst, rFirst := firstRecord(lf), firstRecord(rf)
		left := shuffleInput(u.Probe, lFirst, lKeys, "L", prune)
		left.File = lf
		right := shuffleInput(u.Right, rFirst, rKeys, "R", prune)
		right.File = rf
		spec.Inputs = []mapreduce.Input{left, right}
		residual := expr.Conjoin(j.Residual)
		if err := attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
			return repartitionOp(u, residual, lKeys, rKeys, opts.PruneLive)
		}); err != nil {
			return spec, err
		}
		if residual != nil && !lFirst.IsNull() && !rFirst.IsNull() {
			// The residual sees merged L+R rows; a merge of the two
			// mapped samples has the layout reduce-side rows will have.
			residual = expr.Compile(residual, data.MergeObjects(mapSample(u.Probe, lFirst, prune), mapSample(u.Right, rFirst, prune)))
		}
		spec.Reduce = repartitionReduce(residual, prune)
	case UnitBroadcastChain:
		pf, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		steps := make([]buildStep, len(u.Chain))
		for i, m := range u.Chain {
			steps[i] = buildStep{src: u.Builds[i], join: m}
		}
		return broadcastSpec(env, spec, u.Probe, pf, steps, prune, opts.PruneLive)
	}
	return spec, nil
}

// Scan sets spec's one input to a scan of s — its records wrapped,
// filtered and pruned (prune may be nil) — and, when env has a task
// executor, its remote op to the same scan over the live-column map
// prune was built from. Scan units and the engine's pilot runs build
// their jobs here.
func Scan(env *mapreduce.Env, spec *mapreduce.Spec, s Source, prune func(data.Value) data.Value, live map[string]map[string]bool) error {
	f, err := s.file()
	if err != nil {
		return err
	}
	in := scanInput(s, firstRecord(f), prune)
	in.File = f
	spec.Inputs = []mapreduce.Input{in}
	return attachRemoteOp(env, spec, func() (*wire.OpSpec, error) {
		return scanOp(s, live)
	})
}

// firstRecord returns a file's first record, or null for an empty
// file: the schema sample per-job expressions are compiled against.
func firstRecord(f *dfs.File) data.Value {
	rec, _ := f.FirstRecord()
	return rec
}

// wrapSample applies a source's alias wrapping (but not its filter) to
// a raw record, yielding the row shape the source's expressions see.
func wrapSample(s Source, rec data.Value) data.Value {
	if s.Wrap != "" {
		return data.Object(data.Field{Name: s.Wrap, Value: rec})
	}
	return rec
}

// mapSample returns a sample row with the layout the source's map
// function emits: the input's first record, wrapped and pruned; null
// when the input is empty. The filter is deliberately not applied — it
// selects rows, it does not change their shape.
func mapSample(s Source, first data.Value, prune func(data.Value) data.Value) data.Value {
	if first.IsNull() {
		return first
	}
	row := wrapSample(s, first)
	if prune != nil {
		row = prune(row)
	}
	return row
}

// buildStep pairs a broadcast build source with the join it serves.
type buildStep struct {
	src  Source
	join *plan.Join
}

// probeStep is one link of a broadcast probe chain: the build table's
// registered name, the probe-side key columns, and the join's residual
// filter.
type probeStep struct {
	name     string
	keys     []data.Path
	keyAccs  []*data.Accessor
	residual expr.Expr
}

// chainPlan resolves a broadcast chain into its build sides and the
// (uncompiled) probe steps: step i's probe-side keys resolve against
// the probe aliases plus every build merged before it.
func chainPlan(probe Source, steps []buildStep) ([]mapreduce.Broadcast, []probeStep, error) {
	builds := make([]mapreduce.Broadcast, len(steps))
	plans := make([]probeStep, len(steps))
	probeAliases := append([]string(nil), probe.aliases()...)
	for i, st := range steps {
		name := fmt.Sprintf("b%d", i)
		bf, err := st.src.file()
		if err != nil {
			return nil, nil, err
		}
		builds[i] = mapreduce.Broadcast{
			Name:     name,
			File:     bf,
			KeyPaths: probeKeyPaths(st.join, st.src.aliases()),
			Wrap:     st.src.Wrap,
			Filter:   st.src.Filter,
		}
		plans[i] = probeStep{
			name:     name,
			keys:     probeKeyPaths(st.join, probeAliases),
			residual: expr.Conjoin(st.join.Residual),
		}
		probeAliases = append(probeAliases, st.src.aliases()...)
	}
	return builds, plans, nil
}

// broadcastSpec assembles a map-only hash-join job: the probe input
// streams through the chain of builds, merging and applying each
// join's residual filters inline.
func broadcastSpec(env *mapreduce.Env, spec mapreduce.Spec, probe Source, probeFile *dfs.File, steps []buildStep, prune func(data.Value) data.Value, live map[string]map[string]bool) (mapreduce.Spec, error) {
	builds, plans, err := chainPlan(probe, steps)
	if err != nil {
		return spec, err
	}
	spec.Broadcasts = builds
	in := chainInput(probe, firstRecord(probeFile), plans, prune)
	in.File = probeFile
	spec.Inputs = []mapreduce.Input{in}
	err = attachRemoteOp(env, &spec, func() (*wire.OpSpec, error) {
		return chainOp(probe, plans, live)
	})
	return spec, err
}

// chainInput builds the map input of a broadcast-chain probe. The
// probe filter, per-step key paths, and residuals are compiled once
// against first, the probe input's first record (wrapped and pruned);
// key paths and residual columns referencing build-side aliases — or
// any column, for an empty input — simply compile without positional
// hints and resolve through the accessor's name fallback, no slower
// than the interpreted path.
func chainInput(probe Source, first data.Value, steps []probeStep, prune func(data.Value) data.Value) mapreduce.Input {
	plans := append([]probeStep(nil), steps...)
	sample := mapSample(probe, first, prune)
	for i := range plans {
		plans[i].keyAccs = data.CompileAccessors(plans[i].keys, sample)
		if plans[i].residual != nil && !sample.IsNull() {
			plans[i].residual = expr.Compile(plans[i].residual, sample)
		}
	}
	probeRow := sourceRowFn(probe, first)
	in := mapreduce.Input{Map: func(mc *mapreduce.MapCtx, rec data.Value) {
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
				for _, m := range ht.Probe(mapreduce.CompositeKey(r, st.keyAccs)) {
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
	}}
	if prune == nil {
		if alias, pred, ok := batchSource(probe); ok {
			in.BatchMap = batchProbeChain(alias, pred, plans)
		}
	}
	return in
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
					for _, m := range ht.Probe(mapreduce.CompositeKey(r, st.keyAccs)) {
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
// shapes keep the wrap-then-filter order. Either way the filter is
// compiled against first, the input's first record (null compiles
// nothing). Compilation never changes results or UDF cost — accessors
// verify field positions per record and fall back to name lookup — so
// heterogeneous inputs and empty files are handled transparently.
func sourceRowFn(s Source, first data.Value) rowFn {
	wrap, filter := s.Wrap, s.Filter
	if filter != nil && wrap != "" {
		if stripped, ok := expr.StripAlias(filter, wrap); ok {
			if !first.IsNull() {
				stripped = expr.Compile(stripped, first)
			}
			return func(ectx *expr.Ctx, rec data.Value) data.Value {
				if !stripped.Eval(ectx, rec).Truthy() {
					return data.Null()
				}
				return data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
			}
		}
	}
	if filter != nil && !first.IsNull() {
		filter = expr.Compile(filter, wrapSample(s, first))
	}
	return func(ectx *expr.Ctx, rec data.Value) data.Value {
		row := rec
		if wrap != "" {
			row = data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
		}
		if filter != nil && !filter.Eval(ectx, row).Truthy() {
			return data.Null()
		}
		return row
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

// scanInput builds the map input of a scan: wrapped, filtered, pruned
// rows, with the columnar batch arm when the filter allows it.
func scanInput(s Source, first data.Value, prune func(data.Value) data.Value) mapreduce.Input {
	row := sourceRowFn(s, first)
	in := mapreduce.Input{Map: func(mc *mapreduce.MapCtx, rec data.Value) {
		if row := row(mc.ExprCtx(), rec); !row.IsNull() {
			if prune != nil {
				row = prune(row)
			}
			mc.Emit(row)
		}
	}}
	if prune == nil {
		if alias, pred, ok := batchSource(s); ok {
			in.BatchMap = mapreduce.ScanBatch(alias, pred)
		}
	}
	return in
}

// shuffleInput builds one side of a repartition join: wrapped,
// filtered, pruned rows shuffled under their key columns, tagged with
// the side. The key paths are compiled once against the input's first
// (wrapped, pruned) record.
func shuffleInput(s Source, first data.Value, keys []data.Path, tag string, prune func(data.Value) data.Value) mapreduce.Input {
	keyAccs := data.CompileAccessors(keys, mapSample(s, first, prune))
	row := sourceRowFn(s, first)
	in := mapreduce.Input{Map: func(mc *mapreduce.MapCtx, rec data.Value) {
		row := row(mc.ExprCtx(), rec)
		if row.IsNull() {
			return
		}
		if prune != nil {
			row = prune(row)
		}
		mc.EmitKV(mapreduce.CompositeKey(row, keyAccs), tag, row)
	}}
	if prune == nil {
		if alias, pred, ok := batchSource(s); ok {
			in.BatchMap = mapreduce.ShuffleBatch(alias, pred, keys, tag)
		}
	}
	return in
}

// repartitionReduce joins one key group: every L record with every R
// record, merged, filtered by the residual, pruned.
func repartitionReduce(residual expr.Expr, prune func(data.Value) data.Value) mapreduce.ReduceFunc {
	return func(rc *mapreduce.ReduceCtx, key data.Value, group []mapreduce.Tagged) {
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
