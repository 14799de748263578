// Package mapreduce implements the MapReduce execution engine over the
// simulated cluster and DFS. It provides the three job shapes DYNO
// needs:
//
//   - map-only jobs (scans with local predicates/UDFs, broadcast hash
//     joins and broadcast-join chains, pilot runs with early termination
//     and on-demand split sampling),
//   - map-reduce jobs (repartition joins, group-by, order-by),
//   - statistics collection in either phase, published per task through
//     the coordination service and merged by the client (§5.4).
//
// Jobs always materialize their output to the DFS — the natural
// re-optimization checkpoints the paper exploits.
package mapreduce

import (
	"errors"
	"fmt"
	"sort"

	"dyno/internal/cluster"
	"dyno/internal/coord"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/stats"
)

// ErrBroadcastOOM is returned when a broadcast build side does not fit
// in a task slot's memory. In Jaql this aborts the query (§2.2.1: "the
// execution of the join, and hence the query fails due to an out of
// memory error").
var ErrBroadcastOOM = errors.New("mapreduce: broadcast build side exceeds slot memory")

// DefaultBytesPerReducer sizes reduce tasks from job input volume in
// the spirit of Hive's bytes-per-reducer default, set to 256 MB so that
// jobs whose shuffle volume approaches their input volume still get
// adequate reduce parallelism on the simulated cluster.
const DefaultBytesPerReducer = 256 << 20

// Gate serializes access to a cluster simulator shared by concurrent
// engine sessions. The simulator itself is single-threaded; a query
// service installs one gate per session (bound to that session's
// cancellation context) so many engines can interleave their jobs on
// one cluster at event granularity. Exclusive environments — every
// experiment and CLI run — leave Env.Gate nil and drive the simulator
// directly, preserving the legacy virtual timeline bit for bit.
type Gate interface {
	// Submit enqueues a job on the shared simulator.
	Submit(j cluster.Job) *cluster.Submission
	// Now returns the current virtual time.
	Now() float64
	// Advance charges client-side work to the virtual clock.
	Advance(d float64)
	// RunUntil drives the simulator until pred() returns true,
	// interleaving event processing with other sessions. It returns a
	// non-nil error when the session is canceled or the cluster goes
	// idle with the predicate unsatisfiable; per-job failures are
	// reported by the submissions themselves, never by RunUntil.
	RunUntil(pred func() bool) error
}

// Env bundles the shared services a job runs against.
type Env struct {
	FS    *dfs.FS
	Sim   *cluster.Sim
	Coord *coord.Service
	Reg   *expr.Registry
	// Gate, when non-nil, mediates all simulator access for this
	// environment (shared-cluster mode). Use the Env methods SubmitJob,
	// Now, Advance, and RunUntil instead of touching Sim directly in
	// any code path a gated session can reach.
	Gate Gate
	// Exec, when non-nil, delegates the per-record work of every map
	// and reduce task to an external executor (the multi-process
	// runtime backend). Jobs submitted to such an environment must
	// carry a serialized operator in Spec.RemoteOp; there is no silent
	// in-process fallback. The simulator keeps driving scheduling and
	// accounting either way, so results and virtual traces match the
	// in-process path exactly.
	Exec TaskExecutor
	// DistributedCache enables Hive-0.12-style broadcast builds: the
	// build side is loaded once per node instead of once per task
	// (§6.6).
	DistributedCache bool
	// BytesPerReducer controls reduce-task sizing; 0 means the Hive
	// default.
	BytesPerReducer int64
	// UseCombiner enables map-side partial aggregation for the
	// grouping job the compiler schedules after the join block. Off by
	// default to keep the evaluation's published numbers stable.
	UseCombiner bool
	// OnCreateFile, when non-nil, is invoked with the name of every
	// output file a job in this environment creates. A query service
	// installs a per-session callback to track the session's scratch
	// files, so cleanup removes exactly those names instead of scanning
	// the whole DFS namespace. Jobs can finish on any goroutine driving
	// a shared simulator, so the callback must be safe for concurrent
	// use and must not block.
	OnCreateFile func(name string)
}

// VirtualSize returns the virtual on-disk size of a record.
func (e *Env) VirtualSize(rec data.Value) int64 {
	return virtualSize(rec, e.FS.ByteScale())
}

func virtualSize(rec data.Value, byteScale float64) int64 {
	return int64(float64(rec.EncodedSize()+1) * byteScale)
}

// ClusterConfig returns the cluster's sizing parameters. Call sites
// use this instead of reaching through Sim so the scheduling substrate
// stays an implementation detail of the environment.
func (e *Env) ClusterConfig() cluster.Config { return e.Sim.Config() }

// Shared reports whether the environment runs behind a session gate
// (its cluster is shared with other concurrent sessions).
func (e *Env) Shared() bool { return e.Gate != nil }

// SubmitJob enqueues a job, through the session gate when the cluster
// is shared.
func (e *Env) SubmitJob(j cluster.Job) *cluster.Submission {
	if e.Gate != nil {
		return e.Gate.Submit(j)
	}
	return e.Sim.Submit(j)
}

// Now returns the current virtual time.
func (e *Env) Now() float64 {
	if e.Gate != nil {
		return e.Gate.Now()
	}
	return e.Sim.Now()
}

// Advance charges client-side work (optimizer calls, statistics
// merges) to the virtual clock.
func (e *Env) Advance(d float64) {
	if e.Gate != nil {
		e.Gate.Advance(d)
		return
	}
	e.Sim.Advance(d)
}

// RunUntil drives the cluster until pred() holds. An exclusive
// environment simply drains the simulator, preserving Sim.Run's error
// semantics (the first job failure is returned); a gated environment
// steps the shared simulator until the predicate is satisfied and
// surfaces job failures only through the submissions themselves.
func (e *Env) RunUntil(pred func() bool) error {
	if e.Gate != nil {
		return e.Gate.RunUntil(pred)
	}
	return e.Sim.Run()
}

// MapCtx is handed to map functions for emitting output.
type MapCtx struct {
	out    *MapOut
	ectx   *expr.Ctx
	builds map[string]*HashTable
	nkBuf  []byte // scratch for key normalization, reused across emits
}

// ExprCtx returns the expression evaluation context (UDF registry plus
// accumulated CPU cost).
func (mc *MapCtx) ExprCtx() *expr.Ctx { return mc.ectx }

// Build returns the broadcast hash table registered under the given
// name, or nil.
func (mc *MapCtx) Build(name string) *HashTable { return mc.builds[name] }

// Emit writes a record to the job's (map-only) output.
func (mc *MapCtx) Emit(rec data.Value) {
	mc.out.Rows = append(mc.out.Rows, rec)
}

// EmitKV routes a record through the shuffle, keyed for the reduce
// phase. Partition assignment is data.Hash64(key) % numReducers — it
// decides which reduce task (and therefore which output position) a
// record lands in. The key is normalized once here so downstream
// sorting and grouping compare strings instead of walking the key tree
// per comparison.
func (mc *MapCtx) EmitKV(key data.Value, tag string, rec data.Value) {
	mc.nkBuf = data.AppendNormKey(mc.nkBuf[:0], key)
	mc.emitPair(key, string(mc.nkBuf), tag, rec, data.Hash64(key))
}

// emitPair is EmitKV with the key's partition hash and normalized
// encoding already computed — the batch arm evaluates keys column-wise
// once per split and routes rows through here, skipping the per-record
// Hash64 and AppendNormKey work. nk must be the key's normalized
// encoding and hash its data.Hash64, so the pair is indistinguishable
// from one built by EmitKV.
func (mc *MapCtx) emitPair(key data.Value, nk string, tag string, rec data.Value, hash uint64) {
	p := int(hash % uint64(len(mc.out.Buckets)))
	mc.out.Buckets[p] = append(mc.out.Buckets[p], Pair{Key: key, nk: nk, Tag: tag, Rec: rec})
}

// MapFunc processes one input record.
type MapFunc func(mc *MapCtx, rec data.Value)

// ReduceCtx is handed to reduce functions for emitting output.
type ReduceCtx struct {
	rows []data.Value
	ectx *expr.Ctx
}

// ExprCtx returns the expression evaluation context.
func (rc *ReduceCtx) ExprCtx() *expr.Ctx { return rc.ectx }

// Emit writes a record to the job's output.
func (rc *ReduceCtx) Emit(rec data.Value) {
	rc.rows = append(rc.rows, rec)
}

// Tagged is one shuffled record with its input tag (repartition joins
// tag records with the side they came from).
type Tagged struct {
	Tag string
	Rec data.Value
}

// ReduceFunc processes all records sharing a key.
type ReduceFunc func(rc *ReduceCtx, key data.Value, group []Tagged)

// Pair is one shuffled record: its reduce key, the input tag, and the
// record. Pairs emitted by a map task also carry the key's normalized
// encoding; pairs decoded from a frame do not, and SortPairs supplies
// it.
type Pair struct {
	Key data.Value
	Tag string
	Rec data.Value
	nk  string // normalized key (data.AppendNormKey); "" = not yet computed
}

// Input is one mapped input of a job.
type Input struct {
	File *dfs.File
	// Splits selects block indexes to process; nil means all.
	Splits []int
	Map    MapFunc
	// BatchMap, when set, is offered each split before the per-record
	// loop. If it returns true it has fully processed the split
	// (emitting exactly what Map would have emitted, in the same order);
	// if it returns false the per-record Map runs instead. See BatchFunc
	// in batchexec.go for the contract.
	BatchMap BatchFunc
}

// Broadcast declares a build side loaded into every map task (or once
// per node with the distributed cache).
//
// When Wrap is set, raw base-table records are wrapped as {Wrap: rec}
// before keying, so path expressions see the same row shape as scans.
// When Filter is set, it is applied while building — the Jaql pattern of
// filtering the small side during hash-table construction. The one-time
// cost of scanning the unfiltered file and evaluating the filter is
// charged once per job (the engine materializes the filtered build and
// distributes that); tasks then pay only for loading the filtered
// table. Pilot runs that consumed their whole input make this free by
// supplying the already-filtered file (§4.1's output-reuse
// optimization).
type Broadcast struct {
	Name     string
	File     *dfs.File
	KeyPaths []data.Path // build-side join key columns over the (wrapped) rows
	Wrap     string      // alias to wrap raw records with; "" = rows are stored pre-wrapped
	Filter   expr.Expr   // optional predicate applied during the build
}

// HashTable is an in-memory build side indexed by the normalized
// encoding of each row's join key, so a probe is one exact map lookup
// with no collision re-checks. Probes return the rows whose key equals
// the probe key, in build scan order.
type HashTable struct {
	nkBuckets map[string][]data.Value // normalized key -> rows (scan order)
	rows      int
}

// BuildHashTable indexes a broadcast side from its raw records, given
// as blocks in scan order: each record is wrapped as {b.Wrap: rec}
// when Wrap is set, kept when b.Filter holds, and keyed by b.KeyPaths
// (b.Name and b.File are not read). It also returns the UDF cost of
// the filter. The in-process job and a proc worker build their tables
// here, so both probe identical tables.
func BuildHashTable(reg *expr.Registry, b Broadcast, blocks []*dfs.Block) (*HashTable, float64, error) {
	ht := &HashTable{nkBuckets: make(map[string][]data.Value)}
	ectx := &expr.Ctx{Reg: reg}
	filter := b.Filter
	var first data.Value
	for _, blk := range blocks {
		if blk.NumRecords() > 0 {
			first = blk.Records()[0]
			break
		}
	}
	// When every filter column is rooted at the wrap alias, evaluate the
	// filter on the raw record before wrapping (identical semantics, see
	// expr.StripAlias) so dropped records never allocate the wrap object.
	var stripped expr.Expr
	if filter != nil && b.Wrap != "" {
		if s, ok := expr.StripAlias(filter, b.Wrap); ok {
			if !first.IsNull() {
				s = expr.Compile(s, first)
			}
			stripped = s
			filter = nil
		}
	}
	var keyAccs []*data.Accessor
	var nkBuf []byte
	for _, blk := range blocks {
		for _, rec := range blk.Records() {
			if stripped != nil && !stripped.Eval(ectx, rec).Truthy() {
				continue
			}
			row := rec
			if b.Wrap != "" {
				row = data.ObjectFromSorted([]data.Field{{Name: b.Wrap, Value: rec}})
			}
			if keyAccs == nil {
				// Compile key paths (and the build filter) against the
				// first row; accessors verify positions per record, so
				// heterogeneous rows still resolve correctly.
				keyAccs = data.CompileAccessors(b.KeyPaths, row)
				if filter != nil {
					filter = expr.Compile(filter, row)
				}
			}
			if filter != nil && !filter.Eval(ectx, row).Truthy() {
				continue
			}
			ht.rows++
			nkBuf = data.AppendNormKey(nkBuf[:0], CompositeKey(row, keyAccs))
			ht.nkBuckets[string(nkBuf)] = append(ht.nkBuckets[string(nkBuf)], row)
		}
	}
	if ectx.Err != nil {
		return nil, 0, ectx.Err
	}
	return ht, ectx.CPUSeconds, nil
}

// virtualSize returns the summed virtual size of the table's rows.
func (h *HashTable) virtualSize(env *Env) int64 {
	var n int64
	for _, rows := range h.nkBuckets {
		for _, row := range rows {
			n += env.VirtualSize(row)
		}
	}
	return n
}

// Probe returns the build rows whose key equals k, in build scan order.
// The returned slice aliases the table's bucket and must not be
// mutated; probes are safe from concurrent tasks because buckets are
// read-only after the build.
func (h *HashTable) Probe(k data.Value) []data.Value {
	var arr [48]byte
	return h.nkBuckets[string(data.AppendNormKey(arr[:0], k))]
}

// ProbeNK returns the build rows whose key normalizes to nk, in build
// scan order: exactly Probe(key) without re-normalizing. The batch
// probe arm uses this with pre-computed (interned) key encodings.
func (h *HashTable) ProbeNK(nk string) []data.Value { return h.nkBuckets[nk] }

// CompositeKey evaluates the key columns, as compiled accessors, over a
// row. A single column yields the bare value; multiple columns yield an
// array, so single- and multi-column join keys hash consistently on
// both sides.
func CompositeKey(row data.Value, accs []*data.Accessor) data.Value {
	if len(accs) == 1 {
		return accs[0].Eval(row)
	}
	vals := make([]data.Value, len(accs))
	for i, a := range accs {
		vals[i] = a.Eval(row)
	}
	return data.Array(vals...)
}

// Rows returns the build side's row count.
func (h *HashTable) Rows() int { return h.rows }

// Spec describes a job.
type Spec struct {
	Name   string
	Inputs []Input
	Reduce ReduceFunc // nil for map-only jobs
	// Combine, when set, runs on each map task's shuffle buckets
	// before they leave the task (the classic MapReduce combiner):
	// rows sharing a key are folded into the rows Combine emits,
	// shrinking the shuffle. The reducer must accept combiner output.
	Combine     ReduceFunc
	Output      string // DFS path for the materialized result
	NumReducers int    // 0: sized from input bytes like Hive

	// Broadcasts are build sides for map-side hash joins.
	Broadcasts []Broadcast

	// CollectStats lists attribute paths to track on the output; nil
	// disables statistics collection for the job.
	CollectStats []data.Path
	KMVSize      int

	// StopAfter > 0 enables pilot-run early termination: once the
	// job-wide output counter reaches the value, queued tasks are
	// canceled (running tasks always finish their split).
	StopAfter int64
	// MoreSplits holds reserve splits per input, added on demand when
	// the initial sample is exhausted before StopAfter is reached
	// (PILR_MT's dynamic split addition).
	MoreSplits [][]int
	// FinishIfFractionDone keeps the job running to completion when at
	// least this fraction of splits has already been processed once
	// StopAfter triggers (§4.1's selective-predicate optimization). 0
	// disables.
	FinishIfFractionDone float64

	// RemoteOp is the serialized operator (*wire.OpSpec) from which a
	// task executor rebuilds the Go closures above on its workers.
	// Required when the environment has Env.Exec set; ignored
	// otherwise. It must describe the identical transformation.
	RemoteOp any
}

type mapTaskState struct {
	inputIdx int
	splitIdx int
	seq      int // submission order, for deterministic output assembly
	outRows  []data.Value
	// buckets is the in-process path's partitioned shuffle output;
	// shuffle, when non-nil, is the executor's handle to the same output
	// retained away from the controller, and shuffleParts its digests.
	// Accounting reads either through part.
	buckets      [][]Pair
	shuffle      any
	shuffleParts []ShufflePart
	collector    *stats.Collector
}

type reduceTaskState struct {
	partition int
	outRows   []data.Value
	collector *stats.Collector
}

// Result summarizes a finished job.
type Result struct {
	Output        *dfs.File
	Stats         *stats.Partial
	InRecords     int64
	OutRecords    int64
	MapTasks      int
	ReduceTasks   int
	SplitsTotal   int
	SplitsRun     int
	WholeInput    bool // every split of every input was processed
	OutputVirtual int64
}

// Job implements cluster.Job for a Spec.
type Job struct {
	env  *Env
	spec Spec

	numReducers int
	builds      map[string]*HashTable
	buildBytes  int64

	mapStates    []*mapTaskState
	reduceStates []*reduceTaskState
	mapsPending  int
	mapsDone     int
	reducePhase  bool
	splitsTotal  int
	seq          int
	reserve      [][]int // remaining on-demand splits per input
	counterName  string
	buildErr     error
	prepLatency  float64
	prepCharged  bool

	result *Result
	err    error
	done   bool
}

// NewJob validates a spec and returns a job ready to submit.
func NewJob(env *Env, spec Spec) (*Job, error) {
	if env == nil || env.FS == nil || env.Sim == nil || env.Coord == nil {
		return nil, errors.New("mapreduce: incomplete environment")
	}
	if spec.Name == "" {
		return nil, errors.New("mapreduce: job needs a name")
	}
	if len(spec.Inputs) == 0 {
		return nil, errors.New("mapreduce: job needs at least one input")
	}
	if spec.Output == "" {
		return nil, errors.New("mapreduce: job needs an output path")
	}
	if len(spec.MoreSplits) > 0 && len(spec.MoreSplits) != len(spec.Inputs) {
		return nil, errors.New("mapreduce: MoreSplits must align with Inputs")
	}
	j := &Job{env: env, spec: spec, counterName: "job/" + spec.Name + "/out"}
	j.numReducers = spec.NumReducers
	if j.numReducers <= 0 {
		j.numReducers = j.defaultReducers()
	}
	if len(spec.MoreSplits) > 0 {
		j.reserve = make([][]int, len(spec.MoreSplits))
		for i, s := range spec.MoreSplits {
			j.reserve[i] = append([]int(nil), s...)
		}
	}
	return j, nil
}

func (j *Job) defaultReducers() int {
	per := j.env.BytesPerReducer
	if per <= 0 {
		per = DefaultBytesPerReducer
	}
	var in int64
	for _, input := range j.spec.Inputs {
		in += input.File.Size()
	}
	n := int(in / per)
	if n < 1 {
		n = 1
	}
	if max := j.env.ClusterConfig().ReduceSlots() * 2; n > max && max > 0 {
		n = max
	}
	return n
}

// Name implements cluster.Job.
func (j *Job) Name() string { return j.spec.Name }

// Start implements cluster.Job: loads broadcast sides and creates one
// map task per selected split.
func (j *Job) Start(sub *cluster.Submission) []*cluster.Task {
	j.env.Coord.Reset(j.counterName)
	// Build broadcast hash tables once in-process; virtual load cost is
	// charged per task (or per node with the distributed cache), and
	// the one-time filtered-build preparation on the first task.
	j.builds = make(map[string]*HashTable, len(j.spec.Broadcasts))
	for _, b := range j.spec.Broadcasts {
		ht, cpu, err := BuildHashTable(j.env.Reg, b, b.File.Blocks())
		if err != nil {
			j.buildErr = err
			break
		}
		j.builds[b.Name] = ht
		j.buildBytes += ht.virtualSize(j.env)
		// Producing a filtered build is a parallel map-only stage of
		// its own: one extra job startup plus a cluster-wide scan of
		// the unfiltered input.
		if prepBytes := b.File.Size(); b.Filter != nil && prepBytes > 0 {
			slots := float64(j.env.ClusterConfig().MapSlots())
			if slots < 1 {
				slots = 1
			}
			j.prepLatency += j.env.ClusterConfig().JobStartup +
				float64(prepBytes)/(scanBps(j.env)*slots) + cpu/slots
		}
	}
	var tasks []*cluster.Task
	for i, input := range j.spec.Inputs {
		splits := input.Splits
		if splits == nil {
			splits = make([]int, input.File.NumBlocks())
			for s := range splits {
				splits[s] = s
			}
		}
		j.splitsTotal += input.File.NumBlocks()
		for _, s := range splits {
			tasks = append(tasks, j.newMapTask(i, s))
		}
	}
	if len(j.spec.MoreSplits) == 0 {
		// Without a reserve pool the denominator for WholeInput is the
		// splits actually requested.
		j.splitsTotal = len(tasks)
	}
	j.mapsPending = len(tasks)
	if len(tasks) == 0 {
		// Empty inputs (e.g. a fully filtered intermediate): the job
		// completes immediately but must still materialize its (empty)
		// output and result.
		j.finish(sub)
	}
	return tasks
}

func (j *Job) newMapTask(inputIdx, splitIdx int) *cluster.Task {
	st := &mapTaskState{inputIdx: inputIdx, splitIdx: splitIdx, seq: j.seq}
	j.seq++
	if j.spec.CollectStats != nil {
		st.collector = stats.NewCollector(j.spec.CollectStats, j.spec.KMVSize)
	}
	j.mapStates = append(j.mapStates, st)
	input := j.spec.Inputs[inputIdx]
	name := fmt.Sprintf("%s-m%d", j.spec.Name, st.seq)
	t := &cluster.Task{
		Kind: cluster.MapTask,
		Name: name,
		Run: func(tc cluster.TaskContext) (cluster.Usage, error) {
			return j.runMap(st, input, tc)
		},
	}
	if len(j.spec.Broadcasts) > 0 {
		// The one-time filtered-build preparation is charged to exactly
		// one task, and the per-node build load to the first attempt on
		// each node. Finish runs serially in dispatch order — and is
		// replayed for speculative backup attempts with the backup's
		// own TaskContext — so both charges land correctly whether Run
		// closures execute inline, on the worker pool, or not at all
		// (backups reuse the primary's usage).
		t.Finish = func(tc cluster.TaskContext, u *cluster.Usage) {
			if !j.prepCharged {
				j.prepCharged = true
				u.ExtraLatency += j.prepLatency
			}
			if rate := broadcastBps(j.env); rate > 0 {
				if j.env.DistributedCache && !tc.FirstOnNode {
					// Build already resident on this node.
				} else {
					u.ExtraLatency += float64(j.buildBytes) / rate
				}
			}
		}
	}
	return t
}

// MapTask is one map task's record loop, independent of the job that
// schedules it: the in-process path runs it for every task, and a proc
// worker runs it for each task it is sent, so both backends compute
// the same rows and charge the same UDF cost.
type MapTask struct {
	// Input supplies Map and BatchMap; its File and Splits are not read.
	Input  Input
	Builds map[string]*HashTable
	// NumReducers partitions shuffle output by
	// data.Hash64(key) % NumReducers; 0 means a map-only job.
	NumReducers int
	// Combine, when set, folds each partition through the map-side
	// combiner before the output leaves the task.
	Combine ReduceFunc
}

// MapOut is one map task's output.
type MapOut struct {
	Rows []data.Value // map-only jobs, in emit order
	// Buckets holds a shuffle job's pairs, one slice per partition, in
	// emit order (key order, one pair per group output, when combined).
	Buckets  [][]Pair
	CPUMap   float64 // UDF cost of the map phase
	CPUTotal float64 // CPUMap plus the combiner's cost
}

// Run processes one block: the BatchMap when it takes the block, the
// per-record Map otherwise, then the combiner.
func (t MapTask) Run(reg *expr.Registry, blk *dfs.Block) (*MapOut, error) {
	out := &MapOut{}
	// Size output buffers from the split: most maps emit at most one
	// row per input record, so this avoids the append growth ladder in
	// the shuffle hot path.
	n := blk.NumRecords()
	if t.NumReducers > 0 {
		out.Buckets = make([][]Pair, t.NumReducers)
		if n > 0 {
			for p := range out.Buckets {
				out.Buckets[p] = getKVSlice(n/t.NumReducers + 1)
			}
		}
	} else if n > 0 {
		out.Rows = getRowSlice(n)
	}
	ectx := &expr.Ctx{Reg: reg}
	mc := &MapCtx{out: out, ectx: ectx, builds: t.Builds}
	if t.Input.BatchMap == nil || !t.Input.BatchMap(mc, blk) {
		for _, rec := range blk.Records() {
			t.Input.Map(mc, rec)
		}
	}
	out.CPUMap = ectx.CPUSeconds
	if ectx.Err == nil && t.Combine != nil {
		for p, bucket := range out.Buckets {
			if len(bucket) > 0 {
				out.Buckets[p] = combine(ectx, t.Combine, bucket)
			}
		}
	}
	out.CPUTotal = ectx.CPUSeconds
	return out, ectx.Err
}

// combine folds one partition's pairs per key through the combiner
// and recycles the input slice.
func combine(ectx *expr.Ctx, fn ReduceFunc, bucket []Pair) []Pair {
	SortPairs(bucket)
	rc := &ReduceCtx{ectx: ectx}
	var combined []Pair
	eachGroup(bucket, func(first *Pair, group []Tagged) {
		rc.rows = rc.rows[:0]
		fn(rc, first.Key, group)
		for _, rec := range rc.rows {
			combined = append(combined, Pair{Key: first.Key, nk: first.nk, Rec: rec})
		}
	})
	putKVSlice(bucket)
	return combined
}

// Reduce runs fn once per key group of pairs, which must be in reduce
// key order (see SortPairs), and returns the emitted rows and their UDF
// cost. The in-process reduce task and a proc worker's both run here.
func Reduce(reg *expr.Registry, fn ReduceFunc, pairs []Pair) ([]data.Value, float64, error) {
	ectx := &expr.Ctx{Reg: reg}
	rc := &ReduceCtx{rows: getRowSlice(0), ectx: ectx}
	eachGroup(pairs, func(first *Pair, group []Tagged) {
		fn(rc, first.Key, group)
	})
	return rc.rows, ectx.CPUSeconds, ectx.Err
}

func (j *Job) runMap(st *mapTaskState, input Input, tc cluster.TaskContext) (cluster.Usage, error) {
	var u cluster.Usage
	if j.buildErr != nil {
		return u, j.buildErr
	}
	// Broadcast build: the memory check stays on the execution path,
	// but all latency charges (one-time filtered build, per-node load)
	// live in the task's Finish hook — never here, where concurrent
	// tasks would race on j.prepCharged, and where a speculative backup
	// attempt could not re-apply them for its own node.
	if len(j.spec.Broadcasts) > 0 {
		if j.buildBytes > j.env.ClusterConfig().SlotMemory {
			return u, fmt.Errorf("%w: build %d bytes > slot memory %d",
				ErrBroadcastOOM, j.buildBytes, j.env.ClusterConfig().SlotMemory)
		}
	}
	block := input.File.Block(st.splitIdx)
	u.BytesRead += input.File.BlockSizeBytes(st.splitIdx)
	var out *MapExecOut
	var err error
	if j.env.Exec != nil {
		out, err = j.runMapRemote(st, input)
	} else {
		out, err = j.runMapLocal(st, input, block)
	}
	if err != nil {
		return u, err
	}
	st.outRows = out.Rows
	st.shuffle, st.shuffleParts = out.Shuffle, out.ShuffleParts
	// Charge input, UDF cost and output volume, and update the shared
	// output counter. A combining task charges the map-phase cost and
	// then the accumulated map+combine total again.
	n := block.NumRecords()
	if st.collector != nil {
		st.collector.ObserveInputs(n)
	}
	u.Records += int64(n)
	u.CPUSeconds += out.CPUMap
	if j.spec.Combine != nil && j.spec.Reduce != nil {
		u.CPUSeconds += out.CPUTotal
	}
	for _, rec := range st.outRows {
		sz := j.env.VirtualSize(rec)
		u.BytesWritten += sz
		if st.collector != nil {
			st.collector.ObserveOutput(rec, sz)
		}
	}
	emitted := int64(len(st.outRows))
	if j.spec.Reduce != nil {
		scale := j.env.FS.ByteScale()
		for p := 0; p < j.numReducers; p++ {
			part := st.part(p, scale)
			u.BytesShuffled += part.Bytes
			emitted += int64(part.Count)
		}
	}
	if emitted > 0 {
		j.env.Coord.Add(j.counterName, emitted)
	}
	return u, nil
}

// runMapLocal runs the map task body in-process and digests its
// shuffle buckets the way an executor does.
func (j *Job) runMapLocal(st *mapTaskState, input Input, block *dfs.Block) (*MapExecOut, error) {
	task := MapTask{Input: input, Builds: j.builds}
	if j.spec.Reduce != nil {
		task.NumReducers = j.numReducers
		task.Combine = j.spec.Combine
	}
	out, err := task.Run(j.env.Reg, block)
	if err != nil {
		return nil, err
	}
	st.buckets = out.Buckets
	return &MapExecOut{Rows: out.Rows, CPUMap: out.CPUMap, CPUTotal: out.CPUTotal}, nil
}

// part digests the task's shuffle output for one reduce partition:
// the executor's digest when the output is retained away from the
// controller, otherwise the in-process bucket's.
func (st *mapTaskState) part(p int, byteScale float64) ShufflePart {
	if st.shuffle != nil {
		return st.shuffleParts[p]
	}
	if p < len(st.buckets) {
		return Digest(st.buckets[p], byteScale)
	}
	return ShufflePart{}
}

// Digest summarizes one partition of a map task's shuffle output: the
// pair count and the records' summed virtual size at byteScale. An
// executor digests the buckets it retains with the same function, so
// both backends account identical shuffle bytes.
func Digest(pairs []Pair, byteScale float64) ShufflePart {
	d := ShufflePart{Count: len(pairs)}
	for i := range pairs {
		d.Bytes += virtualSize(pairs[i].Rec, byteScale)
	}
	return d
}

// TaskDone implements cluster.Job.
func (j *Job) TaskDone(sub *cluster.Submission, t *cluster.Task) []*cluster.Task {
	if t.Kind == cluster.ReduceTask {
		if sub.Pending() == 0 && sub.Running() == 0 {
			j.finish(sub)
		}
		return nil
	}
	j.mapsDone++
	// Pilot-run early termination.
	if j.spec.StopAfter > 0 && j.env.Coord.Get(j.counterName) >= j.spec.StopAfter {
		frac := float64(j.mapsDone) / float64(max(j.splitsTotal, 1))
		if j.spec.FinishIfFractionDone > 0 && frac >= j.spec.FinishIfFractionDone {
			// Close to completion: let the job finish so its output is
			// reusable for the real query.
		} else {
			sub.CancelPending()
		}
	}
	if sub.Pending() == 0 && sub.Running() == 0 {
		// Map phase drained: add reserve splits if the sample target is
		// unmet, otherwise move to the reduce phase or finish.
		if j.spec.StopAfter > 0 && j.env.Coord.Get(j.counterName) < j.spec.StopAfter {
			if more := j.takeReserve(); len(more) > 0 {
				return more
			}
		}
		if j.spec.Reduce != nil {
			return j.makeReduceTasks()
		}
		j.finish(sub)
	}
	return nil
}

// takeReserve pops the next wave of on-demand sample splits. The batch
// is sized from the observed output rate (the situation-aware adaptive
// sampling of Vernica et al. the paper adopts): enough splits to reach
// the k-record target at the rate seen so far, with 25% headroom, so a
// selective filter converges in one or two extra waves.
func (j *Job) takeReserve() []*cluster.Task {
	batch := j.mapsDone
	if batch < 1 {
		batch = 1
	}
	if emitted := j.env.Coord.Get(j.counterName); emitted > 0 && j.mapsDone > 0 {
		rate := float64(emitted) / float64(j.mapsDone)
		missing := float64(j.spec.StopAfter) - float64(emitted)
		if missing > 0 && rate > 0 {
			batch = int(missing/rate*1.25) + 1
		}
	}
	var tasks []*cluster.Task
	for i := range j.reserve {
		take := batch
		if take > len(j.reserve[i]) {
			take = len(j.reserve[i])
		}
		for _, s := range j.reserve[i][:take] {
			tasks = append(tasks, j.newMapTask(i, s))
		}
		j.reserve[i] = j.reserve[i][take:]
	}
	return tasks
}

func (j *Job) makeReduceTasks() []*cluster.Task {
	j.reducePhase = true
	tasks := make([]*cluster.Task, j.numReducers)
	for p := 0; p < j.numReducers; p++ {
		st := &reduceTaskState{partition: p}
		if j.spec.CollectStats != nil {
			st.collector = stats.NewCollector(j.spec.CollectStats, j.spec.KMVSize)
		}
		j.reduceStates = append(j.reduceStates, st)
		p := p
		tasks[p] = &cluster.Task{
			Kind: cluster.ReduceTask,
			Name: fmt.Sprintf("%s-r%d", j.spec.Name, p),
			Run: func(tc cluster.TaskContext) (cluster.Usage, error) {
				return j.runReduce(st, p)
			},
		}
	}
	return tasks
}

func (j *Job) runReduce(st *reduceTaskState, partition int) (cluster.Usage, error) {
	var u cluster.Usage
	// The partition's shuffle volume and record count come from the map
	// tasks' digests, whichever backend holds the pairs.
	var count int64
	scale := j.env.FS.ByteScale()
	for _, ms := range j.mapStates {
		part := ms.part(partition, scale)
		u.BytesShuffled += part.Bytes
		count += int64(part.Count)
	}
	var out *ReduceExecOut
	var err error
	if j.env.Exec != nil {
		out, err = j.runReduceRemote(partition)
	} else {
		out, err = j.runReduceLocal(partition, count)
	}
	if err != nil {
		return u, err
	}
	st.outRows = out.Rows
	u.Records += count
	u.CPUSeconds += out.CPUSeconds
	for _, rec := range st.outRows {
		sz := j.env.VirtualSize(rec)
		u.BytesWritten += sz
		if st.collector != nil {
			st.collector.ObserveOutput(rec, sz)
		}
	}
	return u, nil
}

// runReduceLocal gathers the partition's pairs from all map tasks in
// submission order, sorts them by key and runs the reduce task body.
// Groups handed to the reducer are valid only for the duration of the
// call (they are carved out of a pooled slab); reducers must copy
// anything they keep, as all in-repo reducers do.
func (j *Job) runReduceLocal(partition int, count int64) (*ReduceExecOut, error) {
	pairs := getKVSlice(int(count))
	for _, ms := range j.mapStates {
		if partition < len(ms.buckets) {
			pairs = append(pairs, ms.buckets[partition]...)
		}
	}
	SortPairs(pairs)
	rows, cpu, err := Reduce(j.env.Reg, j.spec.Reduce, pairs)
	putKVSlice(pairs)
	if err != nil {
		return nil, err
	}
	return &ReduceExecOut{Rows: rows, CPUSeconds: cpu}, nil
}

// finish assembles the output file and merged statistics.
func (j *Job) finish(sub *cluster.Submission) {
	if j.done {
		return
	}
	j.done = true
	res := &Result{
		MapTasks:    j.mapsDone,
		ReduceTasks: len(j.reduceStates),
		SplitsTotal: j.splitsTotal,
		SplitsRun:   j.mapsDone,
	}
	res.WholeInput = res.SplitsRun >= res.SplitsTotal
	w := j.env.FS.Create(j.spec.Output)
	if j.env.OnCreateFile != nil {
		j.env.OnCreateFile(j.spec.Output)
	}
	var parts []*stats.Partial
	if j.spec.Reduce == nil {
		// Deterministic map-only output: submission order.
		states := append([]*mapTaskState(nil), j.mapStates...)
		sort.Slice(states, func(a, b int) bool { return states[a].seq < states[b].seq })
		for _, st := range states {
			w.AppendAll(st.outRows)
			res.OutRecords += int64(len(st.outRows))
			if st.collector != nil {
				parts = append(parts, st.collector.Partial())
				// Stage the per-task partial location the way real tasks
				// publish their statistics file URLs.
				j.env.Coord.Publish("stats/"+j.spec.Name, fmt.Sprintf("task-m%d", st.seq))
			}
		}
	} else {
		for _, st := range j.mapStates {
			if st.collector != nil {
				res.InRecords += st.collector.Partial().InRecords
			}
		}
		for _, st := range j.reduceStates {
			w.AppendAll(st.outRows)
			res.OutRecords += int64(len(st.outRows))
			if st.collector != nil {
				parts = append(parts, st.collector.Partial())
				j.env.Coord.Publish("stats/"+j.spec.Name, fmt.Sprintf("task-r%d", st.partition))
			}
		}
	}
	if j.spec.Reduce == nil {
		for _, st := range j.mapStates {
			if st.collector != nil {
				res.InRecords += st.collector.Partial().InRecords
			}
		}
	}
	res.Output = w.Close()
	res.OutputVirtual = res.Output.Size()
	if len(parts) > 0 {
		res.Stats = stats.MergePartials(parts)
	}
	// Intermediate shuffle state held outside the controller is dead
	// once the output file exists; tell a retaining executor so worker
	// disks don't accumulate retired jobs.
	if r, ok := j.env.Exec.(JobRetirer); ok {
		r.RetireJob(j.spec.Name)
	}
	// The shuffle and output buffers are fully consumed once the job
	// finishes (the writer copied every record into its blocks); recycle
	// them for later tasks and jobs. Every Run closure executes at most
	// once (injected failures skip execution, backups replay the
	// primary's usage), so no retry can observe a recycled buffer.
	for _, ms := range j.mapStates {
		for p := range ms.buckets {
			putKVSlice(ms.buckets[p])
			ms.buckets[p] = nil
		}
		putRowSlice(ms.outRows)
		ms.outRows = nil
	}
	for _, st := range j.reduceStates {
		putRowSlice(st.outRows)
		st.outRows = nil
	}
	j.result = res
}

// Result returns the job's outcome after it completed.
func (j *Job) Result() (*Result, error) {
	if j.err != nil {
		return nil, j.err
	}
	if j.result == nil {
		return nil, errors.New("mapreduce: job has not completed")
	}
	return j.result, nil
}

// Submit creates the job, submits it, and returns the submission handle
// together with the job for result retrieval.
func Submit(env *Env, spec Spec) (*Job, *cluster.Submission, error) {
	j, err := NewJob(env, spec)
	if err != nil {
		return nil, nil, err
	}
	sub := env.SubmitJob(j)
	return j, sub, nil
}

// Run submits the job and drives the simulator until the job
// completes, returning the job result.
func Run(env *Env, spec Spec) (*Result, error) {
	j, sub, err := Submit(env, spec)
	if err != nil {
		return nil, err
	}
	if err := env.RunUntil(sub.Done); err != nil {
		return nil, err
	}
	if sub.Err() != nil {
		return nil, sub.Err()
	}
	return j.Result()
}

func scanBps(env *Env) float64 { return env.ClusterConfig().ScanBps }

// broadcastBps is the build-side load rate, defaulting to ScanBps.
func broadcastBps(env *Env) float64 {
	if r := env.ClusterConfig().BroadcastLoadBps; r > 0 {
		return r
	}
	return env.ClusterConfig().ScanBps
}
