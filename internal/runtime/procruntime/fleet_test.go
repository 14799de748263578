package procruntime

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/runtime/wire"
)

// These tests exercise the dispatch engine directly with stub HTTP
// workers serving binary /tasks batches: retry on transport failure
// (on distinct workers), fail-fast on deterministic operator errors,
// blacklisting after consecutive failures, staleness, the straggler
// hedge, and the registration handshake.

// fullCaps is what cmd/dynoworker announces.
var fullCaps = wire.Caps{Codecs: []string{wire.CodecBinary}, Batch: true, PeerShuffle: true}

// newBareFleet builds a fleet with test-friendly defaults: no
// heartbeat staleness, hedge effectively off unless a test opts in.
func newBareFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = time.Hour
	}
	if cfg.HedgeMin == 0 {
		cfg.HedgeMin = time.Hour
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// register adds a fully capable worker to the fleet.
func register(t *testing.T, f *Fleet, url string) int {
	t.Helper()
	id, err := f.RegisterWorkerCaps(url, fullCaps)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// failRPC is a batchStub handler result that fails the whole RPC.
func failRPC(*wire.Task) *wire.TaskResult { return nil }

// TestDispatchRetriesOnDistinctWorkers: transport failures are
// retried, each attempt on a worker not yet tried for this task.
// Registration order pins the round-robin: with ids {1,2,3} the first
// pick is id 2, so the good worker (registered first, id 1) is
// reached only after both bad workers fail once each.
func TestDispatchRetriesOnDistinctWorkers(t *testing.T) {
	f := newBareFleet(t, Config{MaxAttempts: 3})
	good := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{CPUSeconds: 1} })
	bad1, bad2 := newBatchStub(t, failRPC), newBatchStub(t, failRPC)
	register(t, f, good.srv.URL)
	register(t, f, bad1.srv.URL)
	register(t, f, bad2.srv.URL)

	resp, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.CPUSeconds != 1 {
		t.Fatalf("got response %+v, want the good worker's", resp)
	}
	if got := good.rpcs.Load(); got != 1 {
		t.Errorf("good worker hit %d times, want 1", got)
	}
	// Both bad workers were tried exactly once: retries land on
	// distinct workers, never re-posting to one that already failed.
	if got := bad1.rpcs.Load() + bad2.rpcs.Load(); got != 2 {
		t.Errorf("bad workers hit %d times total, want 2 (once each)", got)
	}
}

// TestDispatchExhaustsAttempts: when every attempt fails in
// transport, dispatch reports the failure after MaxAttempts.
func TestDispatchExhaustsAttempts(t *testing.T) {
	f := newBareFleet(t, Config{MaxAttempts: 2})
	var stubs []*batchStub
	for i := 0; i < 3; i++ {
		stubs = append(stubs, newBatchStub(t, failRPC))
		register(t, f, stubs[i].srv.URL)
	}

	_, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"})
	if err == nil {
		t.Fatal("dispatch succeeded with only failing workers")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("error = %v, want attempt-exhaustion", err)
	}
	if got := stubs[0].rpcs.Load() + stubs[1].rpcs.Load() + stubs[2].rpcs.Load(); got != 2 {
		t.Errorf("workers hit %d times, want MaxAttempts=2", got)
	}
}

// TestDispatchFailFastOnOperatorError: a worker that answers HTTP 200
// with TaskResult.Err reports a deterministic operator failure —
// retrying it elsewhere would fail identically, so dispatch must not.
func TestDispatchFailFastOnOperatorError(t *testing.T) {
	f := newBareFleet(t, Config{MaxAttempts: 3})
	other := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{} })
	failing := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{Err: "unknown function frob"} })
	register(t, f, other.srv.URL)   // id 1: would absorb a (wrong) retry
	register(t, f, failing.srv.URL) // id 2: picked first by round-robin

	_, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"})
	if err == nil || !strings.Contains(err.Error(), "unknown function frob") {
		t.Fatalf("error = %v, want the operator error surfaced", err)
	}
	if got := other.rpcs.Load(); got != 0 {
		t.Errorf("operator error was retried on another worker (%d hits)", got)
	}
	// The failing worker's standing is untouched: deterministic errors
	// are the task's fault, not the worker's.
	if got := f.Workers(); got != 2 {
		t.Errorf("live workers = %d after operator error, want 2", got)
	}
}

// TestDispatchBlacklist: a worker failing BlacklistAfter consecutive
// dispatches leaves the rotation; with nobody left, dispatch reports
// no live workers instead of spinning.
func TestDispatchBlacklist(t *testing.T) {
	f := newBareFleet(t, Config{MaxAttempts: 1, BlacklistAfter: 3})
	bad := newBatchStub(t, failRPC)
	register(t, f, bad.srv.URL)

	for i := 0; i < 3; i++ {
		if _, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}); err == nil {
			t.Fatalf("dispatch %d succeeded against a failing worker", i)
		}
	}
	if got := f.Workers(); got != 0 {
		t.Fatalf("live workers = %d after 3 consecutive failures, want 0 (blacklisted)", got)
	}
	_, err := f.dispatch(&wire.Task{Task: "t-m1", Kind: "map"})
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("error = %v, want no-live-workers", err)
	}

	// Re-registration (worker restart) restores its standing.
	register(t, f, bad.srv.URL)
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d after re-registration, want 1", got)
	}
}

// TestDispatchSuccessResetsFailures: failures must be consecutive to
// blacklist; a success in between clears the count.
func TestDispatchSuccessResetsFailures(t *testing.T) {
	f := newBareFleet(t, Config{MaxAttempts: 1, BlacklistAfter: 2})
	var n atomic.Int32
	flaky := newBatchStub(t, func(*wire.Task) *wire.TaskResult {
		// Fail, succeed, fail, succeed, ...: never two in a row.
		if n.Add(1)%2 == 1 {
			return nil
		}
		return &wire.TaskResult{}
	})
	register(t, f, flaky.srv.URL)

	for i := 0; i < 6; i++ {
		f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"})
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d, want 1 (alternating failures never blacklist)", got)
	}
}

// TestDispatchHedgesStragglers: once an attempt exceeds the hedge
// threshold — here while stuck inside a batched RPC — a speculative
// duplicate runs on another worker over the priority lane and the
// first answer wins; the dispatcher does not wait out the straggler.
func TestDispatchHedgesStragglers(t *testing.T) {
	f := newBareFleet(t, Config{MaxAttempts: 3, HedgeMin: 50 * time.Millisecond})
	var order atomic.Int32
	handler := func(*wire.Task) *wire.TaskResult {
		// The first request to arrive anywhere is the straggler.
		seq := order.Add(1)
		if seq == 1 {
			time.Sleep(1 * time.Second)
		}
		return &wire.TaskResult{CPUSeconds: float64(seq)}
	}
	register(t, f, newBatchStub(t, handler).srv.URL)
	register(t, f, newBatchStub(t, handler).srv.URL)

	start := time.Now()
	resp, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.CPUSeconds != 2 {
		t.Fatalf("winning response %+v, want the hedged attempt's (seq 2)", resp)
	}
	if d := time.Since(start); d > 800*time.Millisecond {
		t.Fatalf("dispatch took %v: waited out the straggler instead of hedging", d)
	}
}

// TestWorkersGoStaleWithoutHeartbeat: a silent worker drops out of
// dispatch eligibility after StaleAfter and returns on heartbeat.
func TestWorkersGoStaleWithoutHeartbeat(t *testing.T) {
	f := newBareFleet(t, Config{StaleAfter: 50 * time.Millisecond})
	ok := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{} })
	id := register(t, f, ok.srv.URL)
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d, want 1", got)
	}
	time.Sleep(100 * time.Millisecond)
	if got := f.Workers(); got != 0 {
		t.Fatalf("live workers = %d after silence, want 0 (stale)", got)
	}
	if _, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}); err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("error = %v, want no-live-workers (stale workers are skipped)", err)
	}

	// A heartbeat through the real endpoint refreshes it.
	payload, _ := json.Marshal(wire.HeartbeatRequest{ID: id})
	resp, err := http.Post(f.URL()+"/runtime/heartbeat", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("heartbeat: HTTP %d", resp.StatusCode)
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d after heartbeat, want 1", got)
	}

	// A heartbeat for an id the controller does not know must get Gone
	// so the worker re-registers.
	payload, _ = json.Marshal(wire.HeartbeatRequest{ID: 999})
	resp, err = http.Post(f.URL()+"/runtime/heartbeat", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown-id heartbeat: HTTP %d, want %d", resp.StatusCode, http.StatusGone)
	}
}

// TestRegistrationRefused: the controller validates the handshake. A
// worker lacking any part of the data plane is refused with 400, a
// registration after Close fails with an error status instead of
// joining a dead fleet (or dereferencing its emptied registry), and
// neither appears in Workers().
func TestRegistrationRefused(t *testing.T) {
	f := newBareFleet(t, Config{})
	post := func(caps wire.Caps) int {
		t.Helper()
		payload, err := json.Marshal(wire.RegisterRequest{URL: "http://127.0.0.1:1", Caps: caps})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		f.handleRegister(rec, httptest.NewRequest(http.MethodPost, "/runtime/register", bytes.NewReader(payload)))
		return rec.Code
	}
	for _, caps := range []wire.Caps{
		{},
		{Codecs: []string{"json"}, Batch: true, PeerShuffle: true},
		{Codecs: []string{wire.CodecBinary}, PeerShuffle: true},
		{Codecs: []string{wire.CodecBinary}, Batch: true},
	} {
		if code := post(caps); code != http.StatusBadRequest {
			t.Errorf("caps %+v: HTTP %d, want %d", caps, code, http.StatusBadRequest)
		}
	}
	if got := f.Workers(); got != 0 {
		t.Fatalf("live workers = %d after refused registrations, want 0", got)
	}

	f.Close()
	if code := post(fullCaps); code < 400 {
		t.Errorf("registration after Close: HTTP %d, want an error status", code)
	}
	if _, err := f.RegisterWorkerCaps("http://127.0.0.1:2", fullCaps); err == nil {
		t.Error("RegisterWorkerCaps after Close succeeded")
	}
	if got := f.Workers(); got != 0 {
		t.Fatalf("live workers = %d after Close, want 0", got)
	}
}
