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

// SortPairs puts reduce input into reduce key order: it normalizes
// each key that carries no encoding yet (pairs decoded from a frame)
// and stably sorts the pairs by it. Every reduce, combine and proc
// worker groups its pairs after this one sort.
func SortPairs(pairs []Pair) {
	var buf []byte
	for i := range pairs {
		if pairs[i].nk == "" {
			buf = data.AppendNormKey(buf[:0], pairs[i].Key)
			pairs[i].nk = string(buf)
		}
	}
	slices.SortStableFunc(pairs, func(a, b Pair) int {
		return strings.Compare(a.nk, b.nk)
	})
}

// eachGroup calls fn once per key group of sorted pairs, in order,
// with the group's first pair and its records. The records are carved
// out of a pooled slab and are valid only for the duration of the
// call.
func eachGroup(pairs []Pair, fn func(first *Pair, group []Tagged)) {
	slab := getTaggedSlab(len(pairs))
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].nk == pairs[lo].nk {
			hi++
		}
		start := len(slab)
		for i := lo; i < hi; i++ {
			slab = append(slab, Tagged{Tag: pairs[i].Tag, Rec: pairs[i].Rec})
		}
		// Cap the window at its length, so a reducer appending to its
		// group cannot clobber the slab.
		fn(&pairs[lo], slab[start:len(slab):len(slab)])
		lo = hi
	}
	putTaggedSlab(slab)
}

// Pools recycle the shuffle's large transient buffers across tasks and
// jobs. Slices are cleared before being pooled so they do not pin
// record trees, and are only released once a job has fully finished
// (every Run closure executes at most once, so no retry can observe a
// recycled buffer).
var (
	kvSlicePool sync.Pool // *[]Pair
	taggedPool  sync.Pool // *[]Tagged
	rowPool     sync.Pool // *[]data.Value
)

func getKVSlice(capacity int) []Pair {
	if p, _ := kvSlicePool.Get().(*[]Pair); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]Pair, 0, capacity)
}

func putKVSlice(s []Pair) {
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
