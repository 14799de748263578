package mapreduce

import (
	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
)

// The columnar batch arm processes whole splits at a time where the
// per-record map function would be a scan→filter→project pipeline or a
// shuffle emit loop: per-split column vectors and selection vectors
// replace per-record predicate evaluation, pre-wrapped row slabs
// replace per-record wrap objects, and shuffle/probe keys are
// normalized, interned, and hashed once per split instead of once per
// record per job (splits are immutable, so the columnar image is cached
// on the block and shared across pilot runs, re-executions, and
// repeated scans — see internal/batch).
//
// The arm is a pure host-side accelerator. Every BatchFunc emits
// exactly the records the per-record map would emit, in the same
// order, with the same virtual sizes, so results, traces, job
// counters, and statistics do not depend on which one ran. Whether it
// runs is decided by the input alone: builders return nil for
// predicates batch.Supported refuses, and the per-record Map stays the
// fallback.

// predSig renders a predicate's selection-cache signature once per
// job; "" for a nil predicate.
func predSig(pred expr.Expr) string {
	if pred == nil {
		return ""
	}
	return pred.String()
}

// BatchFunc processes one whole split, or declines. Returning true
// means the split was fully handled: the function emitted exactly what
// the per-record Map would have emitted for every record, in order.
// Returning false means the per-record Map must run instead — the
// function must decline before emitting anything. The job calls
// ObserveInputs for a handled split, so implementations never touch
// the collector.
type BatchFunc func(mc *MapCtx, blk *dfs.Block) bool

// ScanBatch builds the batch arm of a scan-shaped map: filter the raw
// records with pred (already alias-stripped, nil = keep all), wrap
// survivors as {alias: rec}, and emit them in record order. Returns
// nil when pred cannot be evaluated column-wise — callers then leave
// the input's BatchMap unset.
func ScanBatch(alias string, pred expr.Expr) BatchFunc {
	if pred != nil && !batch.Supported(pred) {
		return nil
	}
	sig := predSig(pred)
	return func(mc *MapCtx, blk *dfs.Block) bool {
		d := batch.For(blk.Aux(), blk.Records())
		sel, ok := d.Select(pred, sig)
		if !ok {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		rows := d.Wrapped(alias)
		for _, i := range sel {
			mc.Emit(rows[i])
		}
		return true
	}
}

// ShuffleBatch builds the batch arm of a repartition map: filter the
// raw records with pred (alias-stripped, nil = keep all), wrap
// survivors as {alias: rec}, and shuffle each under its composite key
// evaluated over the wrapped row. Key values, normalized encodings,
// and partition hashes come from the split's cached key columns, so
// the per-record AppendNormKey/Hash64 of EmitKV is paid once per split
// ever, not once per record per job.
func ShuffleBatch(alias string, pred expr.Expr, keys []data.Path, tag string) BatchFunc {
	if pred != nil && !batch.Supported(pred) {
		return nil
	}
	sig := predSig(pred)
	keySig := batch.KeySig(alias, keys)
	return func(mc *MapCtx, blk *dfs.Block) bool {
		d := batch.For(blk.Aux(), blk.Records())
		sel, ok := d.Select(pred, sig)
		if !ok {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		rows := d.Wrapped(alias)
		kc := d.Keys(keySig, alias, keys)
		hs := d.Hashes(kc)
		for _, i := range sel {
			mc.emitPair(kc.Vals[i], kc.NK[i], tag, rows[i], hs[i])
		}
		return true
	}
}
