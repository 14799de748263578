package procruntime

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/runtime/wire"
)

// batchStub serves binary /tasks batches, delegating per-task results
// to fn (called with each decoded task); a nil result fails the whole
// RPC with HTTP 500, a transport-level failure. rpcs counts the RPCs
// seen.
type batchStub struct {
	srv  *httptest.Server
	rpcs atomic.Int32
}

func newBatchStub(t *testing.T, fn func(task *wire.Task) *wire.TaskResult) *batchStub {
	t.Helper()
	s := &batchStub{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, r *http.Request) {
		s.rpcs.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tasks, err := wire.DecodeTaskBatch(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]*wire.TaskResult, len(tasks))
		for i, task := range tasks {
			if results[i] = fn(task); results[i] == nil {
				http.Error(w, "synthetic transport failure", http.StatusInternalServerError)
				return
			}
		}
		frame := wire.EncodeResultBatch(results)
		defer frame.Close()
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.Write(frame.Bytes())
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// dispatchWave fires n concurrent dispatches (the shape the sim's wave
// pool produces) and returns the results and errors by task index.
func dispatchWave(f *Fleet, n int, mk func(i int) *wire.Task) ([]*wire.TaskResult, []error) {
	results := make([]*wire.TaskResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.dispatch(mk(i))
		}(i)
	}
	wg.Wait()
	return results, errs
}

// TestBatchedDispatchCoalesces: a wave of concurrent dispatches to one
// binary worker conflates into far fewer RPCs than tasks, and the
// wire counters see every task exactly once.
func TestBatchedDispatchCoalesces(t *testing.T) {
	const n = 16
	stub := newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		time.Sleep(5 * time.Millisecond) // give later arrivals time to queue
		return &wire.TaskResult{CPUSeconds: 1}
	})
	f := newBareFleet(t, Config{BatchLinger: 20 * time.Millisecond})
	register(t, f, stub.srv.URL)

	_, errs := dispatchWave(f, n, func(i int) *wire.Task {
		return &wire.Task{Task: "t-m" + string(rune('0'+i%10)), Kind: "map"}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	st := f.WireStats()
	if st.Tasks != n {
		t.Fatalf("WireStats.Tasks = %d, want %d", st.Tasks, n)
	}
	if st.RPCs != int64(stub.rpcs.Load()) {
		t.Fatalf("WireStats.RPCs = %d but stub saw %d", st.RPCs, stub.rpcs.Load())
	}
	if st.RPCs >= n/2 {
		t.Fatalf("16 concurrent tasks took %d RPCs: batching is not conflating", st.RPCs)
	}
	if st.BytesOut <= 0 || st.BytesIn <= 0 {
		t.Fatalf("byte counters not populated: %+v", st)
	}
}

// TestBatchedFailFastPerItem: a deterministic operator error inside a
// batch fails only its own task — batchmates complete, nothing is
// retried, and the worker's standing is untouched.
func TestBatchedFailFastPerItem(t *testing.T) {
	stub := newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		if task.Task == "bad" {
			return &wire.TaskResult{Err: "unknown function frob"}
		}
		time.Sleep(5 * time.Millisecond)
		return &wire.TaskResult{CPUSeconds: 1}
	})
	f := newBareFleet(t, Config{BatchLinger: 20 * time.Millisecond})
	register(t, f, stub.srv.URL)

	names := []string{"a", "bad", "c", "d"}
	results, errs := dispatchWave(f, len(names), func(i int) *wire.Task {
		return &wire.Task{Task: names[i], Kind: "map"}
	})
	for i, name := range names {
		if name == "bad" {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "unknown function frob") {
				t.Fatalf("bad task error = %v, want the operator error surfaced", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("task %s failed alongside its bad batchmate: %v", name, errs[i])
		}
		if results[i].CPUSeconds != 1 {
			t.Fatalf("task %s result %+v", name, results[i])
		}
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d after operator error, want 1", got)
	}
}

// TestBatchedRetryOnDistinctWorker: when a batched RPC fails in
// transport, every task it carried retries on a different worker —
// and the failed RPC counts as ONE failure against the worker, not
// one per task it carried.
func TestBatchedRetryOnDistinctWorker(t *testing.T) {
	good := newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		time.Sleep(5 * time.Millisecond)
		return &wire.TaskResult{CPUSeconds: 1}
	})
	bad := newBatchStub(t, failRPC)

	// BlacklistAfter 2 is the tripwire: a 4-task wave splits 2/2 across
	// the workers, so per-item failure counting would blacklist the bad
	// worker from its single lost RPC; per-RPC counting must not.
	f := newBareFleet(t, Config{BatchLinger: 50 * time.Millisecond, BlacklistAfter: 2, MaxAttempts: 2})
	register(t, f, good.srv.URL)
	register(t, f, bad.srv.URL)

	results, errs := dispatchWave(f, 4, func(i int) *wire.Task {
		return &wire.Task{Task: "t-m" + string(rune('0'+i)), Kind: "map"}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v (should have retried on the good worker)", i, err)
		}
		if results[i].CPUSeconds != 1 {
			t.Fatalf("task %d result %+v", i, results[i])
		}
	}
	if bad.rpcs.Load() == 0 {
		t.Fatal("bad worker was never tried: round-robin broken")
	}
	if got := f.Workers(); got != 2 {
		t.Fatalf("live workers = %d, want 2: one failed batch RPC must count as one failure, not one per task", got)
	}
}

// TestBatchedHedgeStragglers: with coalescing lingering well past
// the hedge floor, a straggling batched RPC is still hedged onto the
// other worker, and the hedge's result wins.
func TestBatchedHedgeStragglers(t *testing.T) {
	var order atomic.Int32
	handler := func(*wire.Task) *wire.TaskResult {
		seq := order.Add(1)
		if seq == 1 {
			time.Sleep(1 * time.Second)
		}
		return &wire.TaskResult{CPUSeconds: float64(seq)}
	}
	f := newBareFleet(t, Config{MaxAttempts: 3, HedgeMin: 50 * time.Millisecond, BatchLinger: 20 * time.Millisecond})
	register(t, f, newBatchStub(t, handler).srv.URL)
	register(t, f, newBatchStub(t, handler).srv.URL)

	start := time.Now()
	res, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if res.CPUSeconds == 1 {
		t.Fatalf("winning response %+v, want the hedged attempt's", res)
	}
	if d := time.Since(start); d > 800*time.Millisecond {
		t.Fatalf("dispatch took %v: waited out the straggler instead of hedging", d)
	}
}

// TestBatcherPriorityLane: the acceptance property for the second
// dispatch lane — an urgent task (how dispatch marks retries and
// hedges) enqueued while a full wave batch sits queued behind an
// in-flight RPC is sent ahead of every queued regular task.
func TestBatcherPriorityLane(t *testing.T) {
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	stub := newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		mu.Lock()
		order = append(order, task.Task)
		mu.Unlock()
		if task.Task == "t1" {
			<-release // hold the first RPC so later tasks queue behind it
		}
		return &wire.TaskResult{CPUSeconds: 1}
	})
	// MaxBatch 1 gives a total order over sends; linger disabled so the
	// sender grabs t1 immediately.
	f := newBareFleet(t, Config{MaxBatch: 1, BatchLinger: -1})
	register(t, f, stub.srv.URL)
	f.mu.Lock()
	var b *batcher
	for _, w := range f.workers {
		b = w.batcher
	}
	f.mu.Unlock()

	var wg sync.WaitGroup
	enqueue := func(name string, urgent bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.do(&wire.Task{Task: name, Kind: "map"}, urgent); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	enqueue("t1", false)
	waitFor("t1 in flight", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})
	// A wave queues behind the blocked RPC, in order.
	for i, name := range []string{"t2", "t3", "t4"} {
		enqueue(name, false)
		n := i + 1
		waitFor(name+" queued", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return len(b.queue) == n
		})
	}
	// The hedge arrives last but must be sent next.
	enqueue("t5", true)
	waitFor("t5 on the priority lane", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.prio) == 1
	})
	close(release)
	wg.Wait()

	want := []string{"t1", "t5", "t2", "t3", "t4"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("sent %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("send order %v, want %v (urgent task must preempt the queued wave)", order, want)
		}
	}
}
