package procruntime

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime/wire"
)

// rowStrings renders rows for comparison as their binary block
// encodings, which are exact (unlike String(), they tell an int from
// an integral double).
func rowStrings(rows []data.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		f := wire.EncodeBlock([]data.Value{r})
		out[i] = string(f.Bytes())
		f.Close()
	}
	return out
}

// workerStatus fetches one worker's GET /status snapshot.
func workerStatus(t *testing.T, base string) WorkerStatus {
	t.Helper()
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// These tests drive the executor's peer-shuffle data plane end to end
// against real workers (the same handler cmd/dynoworker serves):
// retained map outputs, direct reduce-side fetches, and the fallback
// ladder down to the controller mirror when a producer dies.

// sumOp groups records {k, v} by k and sums v — the smallest op that
// exercises the full map/shuffle/reduce path.
func sumOp() *wire.OpSpec {
	return &wire.OpSpec{
		Kind:    "aggregate",
		GroupBy: []*wire.ExprSpec{{T: "col", P: "k"}},
		Select: []wire.SelectItem{
			{Expr: &wire.ExprSpec{T: "col", P: "k"}, As: "k"},
			{Agg: "sum", Expr: &wire.ExprSpec{T: "col", P: "v"}, As: "s"},
		},
	}
}

// newPeerHarness builds a fleet with n real peer-capable workers, a
// DFS file of {k, v} records (one record per block, so each record is
// its own map task), and the executor over them. A non-nil wrap
// decorates every worker's handler. It returns the executor, the
// file, and the workers' servers by registration order.
func newPeerHarness(t *testing.T, n, records int, wrap func(http.Handler) http.Handler) (executor, *dfs.File, []*httptest.Server) {
	t.Helper()
	f := newBareFleet(t, Config{})
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		h := NewWorker(expr.NewRegistry()).Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		servers[i] = ts
		register(t, f, ts.URL)
	}
	fs := dfs.New(dfs.WithBlockSize(1))
	w := fs.Create("in")
	for i := 0; i < records; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i % 3))},
			data.Field{Name: "v", Value: data.Int(int64(i + 1))},
		))
	}
	return executor{f: f, fs: fs}, w.Close(), servers
}

// runPeerJob maps every block with retained shuffle output and
// reduces both partitions, returning the reduce rows per partition
// and the map outputs (for handle surgery in the fault tests).
func runPeerJob(t *testing.T, ex executor, file *dfs.File, numReducers int) ([][]data.Value, []*mapreduce.MapExecOut) {
	t.Helper()
	op := sumOp()
	outs := make([]*mapreduce.MapExecOut, file.NumBlocks())
	for i := range outs {
		out, err := ex.ExecMap(mapreduce.MapExec{
			JobName:     "peerjob",
			TaskName:    fmt.Sprintf("peerjob-m%d", i),
			File:        file,
			Split:       i,
			NumReducers: numReducers,
			HasReduce:   true,
			Op:          op,
		})
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
		outs[i] = out
	}
	rows := make([][]data.Value, numReducers)
	for p := 0; p < numReducers; p++ {
		inputs := make([]mapreduce.ShuffleInput, 0, len(outs))
		for _, out := range outs {
			inputs = append(inputs, mapreduce.ShuffleInput{Handle: out.Shuffle})
		}
		res, err := ex.ExecReduce(mapreduce.ReduceExec{
			JobName:   "peerjob",
			TaskName:  fmt.Sprintf("peerjob-r%d", p),
			Partition: p,
			Inputs:    inputs,
			Op:        op,
		})
		if err != nil {
			t.Fatalf("reduce %d: %v", p, err)
		}
		rows[p] = res.Rows
	}
	return rows, outs
}

// TestPeerShuffleKeepsBytesOffController: map outputs are retained on
// their producers and reduce inputs travel worker-to-worker — the
// controller's dispatch plane carries zero shuffle pairs.
func TestPeerShuffleKeepsBytesOffController(t *testing.T) {
	ex, file, _ := newPeerHarness(t, 2, 8, nil)
	rows, outs := runPeerJob(t, ex, file, 2)
	for i, out := range outs {
		if out.Shuffle == nil {
			t.Fatalf("map %d: output not retained on the producer", i)
		}
		if len(out.ShuffleParts) != 2 {
			t.Fatalf("map %d: %d shuffle parts, want 2", i, len(out.ShuffleParts))
		}
	}
	var total int64
	for _, out := range outs {
		for _, part := range out.ShuffleParts {
			total += int64(part.Count)
		}
	}
	if total != int64(file.NumBlocks()) {
		t.Errorf("digests count %d pairs, want %d (one per record)", total, file.NumBlocks())
	}
	if got := len(rows[0]) + len(rows[1]); got != 3 {
		t.Errorf("reduce produced %d groups, want 3", got)
	}
	st := ex.f.WireStats()
	if st.CtlShuffleBytes != 0 {
		t.Errorf("controller carried %d shuffle bytes, want 0 with every peer up", st.CtlShuffleBytes)
	}
	// With one record per block spread over two workers, at least one
	// reduce input segment lives on the other worker.
	if st.PeerFetches == 0 {
		t.Error("no peer fetches recorded; reduce inputs did not travel worker-to-worker")
	}
	if st.PeerShuffleBytes == 0 {
		t.Error("peer shuffle bytes counter stayed zero")
	}
}

// TestPeerDeathFallsBackToMirror: killing a producing worker after
// its maps complete must not fail the job — the reduce's failed peer
// fetch is recovered by re-running the deterministic map through the
// controller mirror and inlining the segment.
func TestPeerDeathFallsBackToMirror(t *testing.T) {
	ex, file, servers := newPeerHarness(t, 2, 8, nil)
	want, outs := runPeerJob(t, ex, file, 2)

	// Kill the producer of the first map's output; every handle whose
	// segment lived there now dereferences a dead peer.
	dead := outs[0].Shuffle.(*peerOutput).url
	var killed bool
	for _, ts := range servers {
		if ts.URL == dead {
			ts.Close()
			killed = true
		}
	}
	if !killed {
		t.Fatalf("producer %s not among the harness servers", dead)
	}

	op := sumOp()
	for p := 0; p < 2; p++ {
		inputs := make([]mapreduce.ShuffleInput, 0, len(outs))
		for _, out := range outs {
			inputs = append(inputs, mapreduce.ShuffleInput{Handle: out.Shuffle})
		}
		res, err := ex.ExecReduce(mapreduce.ReduceExec{
			JobName:   "peerjob",
			TaskName:  fmt.Sprintf("peerjob-r%d", p),
			Partition: p,
			Inputs:    inputs,
			Op:        op,
		})
		if err != nil {
			t.Fatalf("reduce %d after peer death: %v", p, err)
		}
		if !reflect.DeepEqual(rowStrings(res.Rows), rowStrings(want[p])) {
			t.Errorf("partition %d rows changed after mirror fallback:\ngot  %v\nwant %v",
				p, rowStrings(res.Rows), rowStrings(want[p]))
		}
	}
	if st := ex.f.WireStats(); st.CtlShuffleBytes == 0 {
		t.Error("mirror fallback shipped no controller-side shuffle bytes")
	}
}

// TestTransportExhaustionInlinesEverySegment drives the bottom rung of
// the fallback ladder: when every attempt of a reduce fails in
// transport, the executor recovers each segment through the controller
// mirror and dispatches the reduce with all segments inline, and the
// rows must not change.
func TestTransportExhaustionInlinesEverySegment(t *testing.T) {
	var failNext atomic.Int32
	flaky := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/tasks" && failNext.Add(-1) >= 0 {
				http.Error(w, "synthetic transport failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	ex, file, _ := newPeerHarness(t, 2, 8, flaky)
	want, outs := runPeerJob(t, ex, file, 2)

	op := sumOp()
	for p := 0; p < 2; p++ {
		inputs := make([]mapreduce.ShuffleInput, 0, len(outs))
		for _, out := range outs {
			inputs = append(inputs, mapreduce.ShuffleInput{Handle: out.Shuffle})
		}
		// Both workers fail their attempt, which exhausts the dispatch:
		// only the full inline rung can still answer.
		failNext.Store(2)
		res, err := ex.ExecReduce(mapreduce.ReduceExec{
			JobName:   "peerjob",
			TaskName:  fmt.Sprintf("peerjob-r%d", p),
			Partition: p,
			Inputs:    inputs,
			Op:        op,
		})
		if err != nil {
			t.Fatalf("reduce %d after transport exhaustion: %v", p, err)
		}
		if !reflect.DeepEqual(rowStrings(res.Rows), rowStrings(want[p])) {
			t.Errorf("partition %d rows changed after full inline fallback:\ngot  %v\nwant %v",
				p, rowStrings(res.Rows), rowStrings(want[p]))
		}
	}
	if st := ex.f.WireStats(); st.CtlShuffleBytes == 0 {
		t.Error("full inline fallback shipped no controller-side shuffle bytes")
	}
}

// TestShuffleGCOnJobRetirement: retiring a job broadcasts a GC that
// empties every worker's shuffle registry for that job's blocks.
func TestShuffleGCOnJobRetirement(t *testing.T) {
	ex, file, servers := newPeerHarness(t, 2, 6, nil)
	_, outs := runPeerJob(t, ex, file, 2)
	if outs[0].Shuffle == nil {
		t.Fatal("map output not retained")
	}
	ex.RetireJob("peerjob")
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, ts := range servers {
			total += workerStatus(t, ts.URL).ShuffleBlocks
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shuffle blocks still retained after job retirement", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
