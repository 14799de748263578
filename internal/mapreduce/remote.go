package mapreduce

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/dfs"
)

// TaskExecutor is the execution seam of the runtime backends: when
// Env.Exec is set, the per-record work of every map and reduce task is
// delegated to it (a remote worker fleet), while the job lifecycle —
// scheduling, shuffling, statistics, virtual-time accounting, retries
// and speculation — keeps running in-process against the simulator.
// Both backends therefore run the same plans, produce the same rows,
// and count the same jobs by construction; only where the record loop
// executes differs.
type TaskExecutor interface {
	ExecMap(m MapExec) (*MapExecOut, error)
	ExecReduce(r ReduceExec) (*ReduceExecOut, error)
}

// JobRetirer is an optional TaskExecutor extension: executors that
// retain intermediate state outside the controller (peer-held shuffle
// blocks) are told when a job's output is final so they can reclaim
// it.
type JobRetirer interface {
	RetireJob(jobName string)
}

// ShufflePart digests one shuffle partition retained away from the
// controller: its pair count and its virtual shuffle bytes, computed
// by the executor with the controller's exact per-record arithmetic
// so replayed accounting is bit-identical to a materialized bucket.
type ShufflePart struct {
	Count int
	Bytes int64
}

// ShuffleInput is one segment of a reduce task's input, in map
// submission order: a handle to a map output retained away from the
// controller (opaque to this package).
type ShuffleInput struct {
	Handle any
}

// MapExec describes one map task for a TaskExecutor.
type MapExec struct {
	JobName  string
	TaskName string
	// File and Split identify the input block (the executor resolves
	// them to worker-readable storage).
	File     *dfs.File
	Split    int
	InputIdx int
	// NumReducers partitions shuffle output; HasReduce selects between
	// row output and retained shuffle output; RunCombine asks the
	// worker to fold the map-side combiner over its shuffle buckets.
	NumReducers int
	HasReduce   bool
	RunCombine  bool
	// Broadcasts are the job's build sides (workers rebuild the hash
	// tables from the referenced files).
	Broadcasts []Broadcast
	// Op is the serialized operator (a *wire.OpSpec); the seam keeps it
	// opaque so this package does not depend on the wire layer.
	Op any
}

// MapExecOut is a remote map task's output. CPUMap is the UDF cost of
// the map phase alone; CPUTotal additionally includes the combiner —
// the controller charges both against the virtual clock with exactly
// the local path's accrual pattern.
type MapExecOut struct {
	Rows     []data.Value // map-only jobs
	CPUMap   float64
	CPUTotal float64
	// Shuffle is the handle to a shuffle job's map output, retained
	// away from the controller (on the producing worker); ShuffleParts
	// carries the per-partition digests the accounting replays in
	// place of materialized buckets.
	Shuffle      any
	ShuffleParts []ShufflePart
}

// ReduceExec describes one reduce task: Inputs is the ordered segment
// list of retained map outputs, which the executor assembles and sorts
// away from the controller.
type ReduceExec struct {
	JobName   string
	TaskName  string
	Partition int
	Inputs    []ShuffleInput
	Op        any
}

// ReduceExecOut is a remote reduce task's output.
type ReduceExecOut struct {
	Rows       []data.Value
	CPUSeconds float64
}

// errNoRemoteOp rejects jobs submitted without a serialized operator
// while a task executor is installed. Failing loudly here is what
// makes the differential contract trustworthy: the proc backend can
// never silently fall back to in-process execution.
func (j *Job) errNoRemoteOp() error {
	return fmt.Errorf("mapreduce: job %s has no remote op for the task executor", j.spec.Name)
}

// runMapRemote delegates one map task to the executor. Its output
// goes through the same accounting as the in-process task body's
// (runMap); a shuffle job's pairs stay with the executor, and the
// handle and per-partition digests stand in for them.
func (j *Job) runMapRemote(st *mapTaskState, input Input) (*MapExecOut, error) {
	if j.spec.RemoteOp == nil {
		return nil, j.errNoRemoteOp()
	}
	hasReduce := j.spec.Reduce != nil
	out, err := j.env.Exec.ExecMap(MapExec{
		JobName:     j.spec.Name,
		TaskName:    fmt.Sprintf("%s-m%d", j.spec.Name, st.seq),
		File:        input.File,
		Split:       st.splitIdx,
		InputIdx:    st.inputIdx,
		NumReducers: j.numReducers,
		HasReduce:   hasReduce,
		RunCombine:  j.spec.Combine != nil && hasReduce,
		Broadcasts:  j.spec.Broadcasts,
		Op:          j.spec.RemoteOp,
	})
	if err != nil {
		return nil, err
	}
	if !hasReduce {
		return out, nil
	}
	if out.Shuffle == nil {
		return nil, fmt.Errorf("mapreduce: executor returned no shuffle handle for %s", j.spec.Name)
	}
	if len(out.ShuffleParts) != j.numReducers {
		return nil, fmt.Errorf("mapreduce: executor returned %d shuffle parts for %s, want %d",
			len(out.ShuffleParts), j.spec.Name, j.numReducers)
	}
	return out, nil
}

// runReduceRemote ships the partition's ordered segment list — one
// retained map output per map task, in submission order — to the
// executor, which sorts the concatenation exactly as runReduceLocal
// does, so rows and virtual timelines match the in-process run.
func (j *Job) runReduceRemote(partition int) (*ReduceExecOut, error) {
	if j.spec.RemoteOp == nil {
		return nil, j.errNoRemoteOp()
	}
	var inputs []ShuffleInput
	for _, ms := range j.mapStates {
		if ms.shuffle != nil && partition < len(ms.shuffleParts) {
			inputs = append(inputs, ShuffleInput{Handle: ms.shuffle})
		}
	}
	return j.env.Exec.ExecReduce(ReduceExec{
		JobName:   j.spec.Name,
		TaskName:  fmt.Sprintf("%s-r%d", j.spec.Name, partition),
		Partition: partition,
		Inputs:    inputs,
		Op:        j.spec.RemoteOp,
	})
}
