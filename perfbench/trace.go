package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/cluster"
	"dyno/internal/mapreduce"
)

// Spans are recorded from the benchmark's own files, around calls into
// each layer: the simulator's trace hook stamps wall time on job
// boundaries, a decorator times task-executor calls, and wrappers time
// the static baselines' statistics and planning hooks. Spans stay in
// memory and are written once, as Chrome trace-event JSON, at the end.

// span is one outside-in interval. Spans of one query share Query.
type span struct {
	Name  string
	Layer string
	Query string
	Start time.Time
	End   time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// Trace lanes, so concurrent spans of different layers do not overlap
// on one Chrome thread row.
var laneOf = map[string]int{
	"query": 1, "baselines": 2, "pilot": 3, "join": 4, "final": 4, "procruntime": 5,
}

// spanLog collects every span of a traced run.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Layer,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  laneOf[s.Layer],
			Args: map[string]any{"query": s.Query},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// jobKind classifies a job by the names core gives its jobs: pilot
// runs (pilot/<query>/<alias>), the grouping job (tmp/<query>/final)
// and join-block jobs (<query>-i<iteration>-...).
func jobKind(name string) string {
	switch {
	case strings.HasPrefix(name, "pilot/"):
		return "pilot"
	case strings.HasPrefix(name, "tmp/") && strings.HasSuffix(name, "/final"):
		return "final"
	}
	return "join"
}

// jobQuery extracts the engine's query name from a job name.
func jobQuery(name string) string {
	if strings.HasPrefix(name, "pilot/") || strings.HasPrefix(name, "tmp/") {
		parts := strings.SplitN(name, "/", 3)
		if len(parts) > 1 {
			return parts[1]
		}
	}
	if i := strings.LastIndex(name, "-i"); i > 0 {
		return name[:i]
	}
	return name
}

// jobTracer turns a simulator's trace events into wall-clock job
// intervals grouped by engine query name, plus attempt counts. Safe
// for concurrent use; disabled until on is set.
type jobTracer struct {
	on atomic.Bool

	mu       sync.Mutex
	open     map[string]time.Time
	jobs     map[string][]span // engine query name -> finished jobs
	attempts int               // task attempts launched
	finished int               // task attempts whose output was kept
	done     int               // jobs finished
}

func newJobTracer() *jobTracer {
	return &jobTracer{open: map[string]time.Time{}, jobs: map[string][]span{}}
}

func (t *jobTracer) onEvent(ev cluster.TraceEvent) {
	if !t.on.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case "start", "speculative-start":
		t.attempts++
	case "finish":
		t.finished++
	case "job-ready":
		t.open[ev.Job] = now
	case "job-done", "job-failed":
		start, ok := t.open[ev.Job]
		if !ok {
			return
		}
		delete(t.open, ev.Job)
		t.done++
		q := jobQuery(ev.Job)
		t.jobs[q] = append(t.jobs[q], span{Name: ev.Job, Layer: jobKind(ev.Job), Query: q, Start: start, End: now})
	}
}

// take returns and clears the finished jobs and counts.
func (t *jobTracer) take() (jobs map[string][]span, attempts, finished, done int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobs, attempts, finished, done = t.jobs, t.attempts, t.finished, t.done
	t.jobs = map[string][]span{}
	t.attempts, t.finished, t.done = 0, 0, 0
	return
}

// union returns the total length of the union of the spans accepted by
// keep.
func union(spans []span, keep func(span) bool) time.Duration {
	var iv []span
	for _, s := range spans {
		if keep == nil || keep(s) {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start.Before(iv[b].Start) })
	var total time.Duration
	var cur span
	for i, s := range iv {
		switch {
		case i == 0:
			cur = s
		case !s.Start.After(cur.End):
			if s.End.After(cur.End) {
				cur.End = s.End
			}
		default:
			total += cur.dur()
			cur = s
		}
	}
	if len(iv) > 0 {
		total += cur.dur()
	}
	return total
}

func ofKind(kind string) func(span) bool {
	return func(s span) bool { return s.Layer == kind }
}

// execTimer decorates a task executor with per-call wall timing. It
// forwards JobRetirer so the fleet still garbage-collects peer-held
// shuffle blocks when a job retires.
type execTimer struct {
	inner mapreduce.TaskExecutor
	query string
	log   *spanLog

	mu      sync.Mutex
	mapDur  []time.Duration
	reduce  time.Duration
	reduces int
}

func (e *execTimer) ExecMap(m mapreduce.MapExec) (*mapreduce.MapExecOut, error) {
	start := time.Now()
	out, err := e.inner.ExecMap(m)
	s := span{Name: "ExecMap " + m.TaskName, Layer: "procruntime", Query: e.query, Start: start, End: time.Now()}
	e.log.add(s)
	e.mu.Lock()
	e.mapDur = append(e.mapDur, s.dur())
	e.mu.Unlock()
	return out, err
}

func (e *execTimer) ExecReduce(r mapreduce.ReduceExec) (*mapreduce.ReduceExecOut, error) {
	start := time.Now()
	out, err := e.inner.ExecReduce(r)
	s := span{Name: "ExecReduce " + r.TaskName, Layer: "procruntime", Query: e.query, Start: start, End: time.Now()}
	e.log.add(s)
	e.mu.Lock()
	e.reduce += s.dur()
	e.reduces++
	e.mu.Unlock()
	return out, err
}

func (e *execTimer) RetireJob(jobName string) {
	if r, ok := e.inner.(mapreduce.JobRetirer); ok {
		r.RetireJob(jobName)
	}
}
