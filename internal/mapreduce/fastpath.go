package mapreduce

import (
	"slices"
	"strings"
	"sync"

	"dyno/internal/data"
)

// The shuffle orders and groups records by normalized key:
//
//   - EmitKV normalizes each shuffle key once into an order-preserving
//     byte string (data.AppendNormKey), so combine/reduce sorting and
//     grouping are memcmp string compares instead of recursive
//     data.Compare calls per comparison. The encoding is total and its
//     byte order is data.Compare's order, so every key takes this path.
//     Reduce partition assignment is data.Hash64(key) % numReducers.
//   - Shuffle buckets, gathered reduce inputs, and per-group Tagged
//     slabs are recycled through sync.Pools across tasks and jobs
//     instead of being reallocated per group.
//   - Broadcast hash tables index build rows by normalized key, turning
//     probes into exact map lookups with no collision re-checks.
//
// Sorting is stable, so records sharing a key keep their gather order
// (map submission order, then emit order within a task).

// sortPairsByKey stably sorts shuffle pairs into reduce key order.
func sortPairsByKey(pairs []kvPair) {
	slices.SortStableFunc(pairs, func(a, b kvPair) int {
		return strings.Compare(a.nk, b.nk)
	})
}

// groupEnd returns the end of the run of sorted pairs that share
// pairs[lo]'s key.
func groupEnd(pairs []kvPair, lo int) int {
	hi := lo + 1
	for hi < len(pairs) && pairs[hi].nk == pairs[lo].nk {
		hi++
	}
	return hi
}

// appendGroup appends one key group's records to slab and returns the
// grown slab and the group as a window of it whose capacity ends at its
// length, so a reducer appending to its group cannot clobber the slab.
func appendGroup(slab []Tagged, group []kvPair) ([]Tagged, []Tagged) {
	start := len(slab)
	for i := range group {
		slab = append(slab, Tagged{Tag: group[i].tag, Rec: group[i].rec})
	}
	return slab, slab[start:len(slab):len(slab)]
}

// Pools recycle the shuffle's large transient buffers across tasks and
// jobs. Slices are cleared before being pooled so they do not pin
// record trees, and are only released once a job has fully finished
// (every Run closure executes at most once, so no retry can observe a
// recycled buffer).
var (
	kvSlicePool sync.Pool // *[]kvPair
	taggedPool  sync.Pool // *[]Tagged
	rowPool     sync.Pool // *[]data.Value
)

func getKVSlice(capacity int) []kvPair {
	if p, _ := kvSlicePool.Get().(*[]kvPair); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]kvPair, 0, capacity)
}

func putKVSlice(s []kvPair) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	kvSlicePool.Put(&s)
}

func getRowSlice(capacity int) []data.Value {
	if p, _ := rowPool.Get().(*[]data.Value); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]data.Value, 0, capacity)
}

func putRowSlice(s []data.Value) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	rowPool.Put(&s)
}

func getTaggedSlab(capacity int) []Tagged {
	if p, _ := taggedPool.Get().(*[]Tagged); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]Tagged, 0, capacity)
}

func putTaggedSlab(s []Tagged) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	taggedPool.Put(&s)
}
