package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"time"

	"dyno/internal/core"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
	"dyno/internal/rewrite"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/server"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. Unless its name says otherwise, a time or count is per query
// (per request on service) of the traced phase; a metric whose layer
// does no work on a workload, or cannot be observed from outside
// there, reads 0.
var perLayer = []struct{ name, unit string }{
	{"sqlparse.parse_us", "us"},
	{"sqlparse.normalize_us", "us"},
	{"rewrite.compile_us", "us"},
	{"core.pilot_ms", "ms"},
	{"core.pilot_jobs", "count"},
	{"core.pilot_consumed_frac", "ratio"},
	{"core.client_ms", "ms"},
	{"core.iterations", "count"},
	{"core.plan_changes", "count"},
	{"optimizer.groups_expanded", "count"},
	{"optimizer.groups_pruned", "count"},
	{"optimizer.groups_reused", "count"},
	{"optimizer.pruned_frac", "ratio"},
	{"optimizer.optimize_virtual_s", "s"},
	{"baselines.prepare_stats_ms", "ms"},
	{"baselines.plan_ms", "ms"},
	{"mapreduce.job_ms", "ms"},
	{"mapreduce.final_ms", "ms"},
	{"mapreduce.jobs", "count"},
	{"mapreduce.map_only_jobs", "count"},
	{"mapreduce.map_reduce_jobs", "count"},
	{"mapreduce.tasks", "count"},
	{"cluster.task_attempts", "count"},
	{"cluster.useful_attempt_frac", "ratio"},
	{"cluster.wasted_s", "s"},
	{"dfs.files_created", "count"},
	{"procruntime.exec_map_ms", "ms"},
	{"procruntime.exec_reduce_ms", "ms"},
	{"procruntime.exec_map_us_p50", "us"},
	{"procruntime.exec_calls", "count"},
	{"procruntime.worker_block_hit_frac", "ratio"},
	{"wire.rpcs", "count"},
	{"wire.tasks_per_rpc", "count"},
	{"wire.bytes_per_task", "B"},
	{"wire.ctl_shuffle_bytes", "B"},
	{"wire.peer_shuffle_bytes", "B"},
	{"wire.peer_fetches", "count"},
	{"wire.block_encode_ms", "ms"},
	{"server.result_frac", "ratio"},
	{"server.dedup_frac", "ratio"},
	{"server.plan_frac", "ratio"},
	{"server.full_frac", "ratio"},
	{"server.result_ms_p50", "ms"},
	{"server.plan_ms_p50", "ms"},
	{"server.full_ms_p50", "ms"},
	{"server.admission_wait_ms_p50", "ms"},
	{"server.refused", "count"},
	{"server.invalidate_us", "us"},
	{"tpch.generate_s", "s"},
	{"naive.oracle_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_ms", "ms"},
}

// layers accumulates the per-layer measurements of a traced phase.
type layers struct {
	log *spanLog
	cat *jaql.Catalog
	ids atomic.Int64

	queries int
	// Front end, timed standalone on each query's SQL.
	parseUs, normUs, compileUs []float64
	// Core and optimizer, from core.Result.
	pilotJobs, pilotConsumed, iterations, planChanges int
	expanded, pruned, reused                          int
	optimizeSec                                       float64
	// Wall intervals from the simulator's trace hook.
	pilot, join, final, client, unattributed time.Duration
	// Baselines hooks.
	prepare, planner time.Duration
	// Jobs and tasks.
	jobs, mapOnly, mapReduce, tasks, attempts, files int
	wasted                                           float64
	// Task executor.
	execMap, execReduce time.Duration
	execMapUs           []float64
	execCalls           int

	// Proc fleet, as deltas over the traced phase.
	fleet       *fleet
	wireStart   procruntime.WireStats
	blockStart  [2]int64
	blockEncode time.Duration

	// Server tier metrics, set by the service workload.
	server map[string]float64

	generate, oracle time.Duration
	overhead         float64
}

func newLayers(log *spanLog, cat *jaql.Catalog) *layers {
	return &layers{log: log, cat: cat}
}

// frontEnd times the parse, normalize and rewrite layers on one SQL
// text, outside the query's own execution.
func (l *layers) frontEnd(sql string) {
	start := time.Now()
	q, err := sqlparse.Parse(sql)
	l.parseUs = append(l.parseUs, us(time.Since(start)))
	if err != nil {
		return
	}
	start = time.Now()
	if _, err := sqlparse.Normalize(sql); err != nil {
		return
	}
	l.normUs = append(l.normUs, us(time.Since(start)))
	start = time.Now()
	c, err := rewrite.Compile(q)
	if err == nil && l.cat != nil {
		err = jaql.Bind(c.Block, l.cat)
	}
	if err == nil {
		l.compileUs = append(l.compileUs, us(time.Since(start)))
	}
}

// queryProbe instruments one closed-loop query execution.
type queryProbe struct {
	l     *layers
	it    item
	id    string
	jt    *jobTracer
	exec  *execTimer
	files atomic.Int64
	hooks []span // PrepareStats / Planner calls
}

func (l *layers) probe(it item) *queryProbe {
	return &queryProbe{l: l, it: it, id: fmt.Sprintf("q%d", l.ids.Add(1)), jt: newJobTracer()}
}

// instrument hooks the probe into a fresh environment and engine: the
// simulator's trace hook, the DFS file-creation hook, a timing
// decorator around the task executor, and timing wrappers around the
// static baselines' statistics and planner hooks.
func (p *queryProbe) instrument(env *mapreduce.Env, eng *core.Engine) {
	p.l.frontEnd(tpch.MustQuerySQL(p.it.query))
	p.jt.on.Store(true)
	env.Sim.SetTrace(p.jt.onEvent)
	env.OnCreateFile = func(string) { p.files.Add(1) }
	if env.Exec != nil {
		p.exec = &execTimer{inner: env.Exec, query: p.id, log: p.l.log}
		env.Exec = p.exec
	}
	if prep := eng.Options.PrepareStats; prep != nil {
		eng.Options.PrepareStats = func(block *plan.JoinBlock) error {
			start := time.Now()
			err := prep(block)
			p.hooks = append(p.hooks, span{Name: "PrepareStats", Layer: "baselines", Query: p.id, Start: start, End: time.Now()})
			return err
		}
	}
	if planner := eng.Options.Planner; planner != nil {
		eng.Options.Planner = func(block *plan.JoinBlock, cfg optimizer.Config) (plan.Node, int, error) {
			start := time.Now()
			n, alts, err := planner(block, cfg)
			p.hooks = append(p.hooks, span{Name: "Planner", Layer: "baselines", Query: p.id, Start: start, End: time.Now()})
			return n, alts, err
		}
	}
}

// finish folds one finished query into the layer totals.
func (p *queryProbe) finish(start, end time.Time, env *mapreduce.Env, res *core.Result) {
	l := p.l
	wall := end.Sub(start)
	l.log.add(span{Name: p.it.String(), Layer: "query", Query: p.id, Start: start, End: end})
	byQuery, attempts, finished, _ := p.jt.take()
	var jobs []span
	for _, js := range byQuery {
		jobs = append(jobs, js...)
	}
	for _, j := range jobs {
		j.Query = p.id
		l.log.add(j)
	}
	for _, h := range p.hooks {
		l.log.add(h)
		if h.Name == "PrepareStats" {
			l.prepare += h.dur()
		} else {
			l.planner += h.dur()
		}
	}
	l.queries++
	l.pilot += union(jobs, ofKind("pilot"))
	l.join += union(jobs, ofKind("join"))
	l.final += union(jobs, ofKind("final"))
	l.client += wall - union(jobs, nil)
	l.unattributed += wall - union(append(jobs, p.hooks...), nil)
	l.attempts += attempts
	l.tasks += finished
	l.wasted += env.Sim.WastedSec()
	l.files += int(p.files.Load())
	if p.exec != nil {
		p.exec.mu.Lock()
		defer p.exec.mu.Unlock()
		for _, d := range p.exec.mapDur {
			l.execMap += d
			l.execMapUs = append(l.execMapUs, us(d))
		}
		l.execReduce += p.exec.reduce
		l.execCalls += len(p.exec.mapDur) + p.exec.reduces
	}
	if res == nil {
		return
	}
	if res.Pilot != nil {
		l.pilotJobs += res.Pilot.Jobs
		l.pilotConsumed += res.Pilot.Consumed
	}
	l.iterations += res.Iterations
	l.planChanges += res.PlanChanges
	l.expanded += res.OptGroupsExpanded
	l.pruned += res.OptGroupsPruned
	l.reused += res.OptGroupsReused
	l.optimizeSec += res.OptimizeSec
	l.jobs += res.Jobs
	l.mapOnly += res.MapOnlyJobs
	l.mapReduce += res.MapReduceJobs
}

// report writes the trace file and builds the per-layer result.
func (l *layers) report(o options, attempted, failed int) (*report, error) {
	n := float64(max(l.queries, 1))
	per := func(x float64) float64 { return x / n }
	m := map[string]float64{
		"sqlparse.parse_us":            median(l.parseUs),
		"sqlparse.normalize_us":        median(l.normUs),
		"rewrite.compile_us":           median(l.compileUs),
		"core.pilot_ms":                per(ms(l.pilot)),
		"core.pilot_jobs":              per(float64(l.pilotJobs)),
		"core.pilot_consumed_frac":     frac(l.pilotConsumed, l.pilotJobs),
		"core.client_ms":               per(ms(l.client)),
		"core.iterations":              per(float64(l.iterations)),
		"core.plan_changes":            per(float64(l.planChanges)),
		"optimizer.groups_expanded":    per(float64(l.expanded)),
		"optimizer.groups_pruned":      per(float64(l.pruned)),
		"optimizer.groups_reused":      per(float64(l.reused)),
		"optimizer.pruned_frac":        frac(l.pruned, l.expanded+l.pruned),
		"optimizer.optimize_virtual_s": per(l.optimizeSec),
		"baselines.prepare_stats_ms":   per(ms(l.prepare)),
		"baselines.plan_ms":            per(ms(l.planner)),
		"mapreduce.job_ms":             per(ms(l.join)),
		"mapreduce.final_ms":           per(ms(l.final)),
		"mapreduce.jobs":               per(float64(l.jobs)),
		"mapreduce.map_only_jobs":      per(float64(l.mapOnly)),
		"mapreduce.map_reduce_jobs":    per(float64(l.mapReduce)),
		"mapreduce.tasks":              per(float64(l.tasks)),
		"cluster.task_attempts":        per(float64(l.attempts)),
		"cluster.useful_attempt_frac":  frac(l.tasks, l.attempts),
		"cluster.wasted_s":             per(l.wasted),
		"dfs.files_created":            per(float64(l.files)),
		"procruntime.exec_map_ms":      per(ms(l.execMap)),
		"procruntime.exec_reduce_ms":   per(ms(l.execReduce)),
		"procruntime.exec_map_us_p50":  median(l.execMapUs),
		"procruntime.exec_calls":       per(float64(l.execCalls)),
		"wire.block_encode_ms":         ms(l.blockEncode),
		"tpch.generate_s":              l.generate.Seconds(),
		"naive.oracle_s":               l.oracle.Seconds(),
		"trace.overhead_frac":          l.overhead,
		"trace.unattributed_ms":        per(ms(l.unattributed)),
	}
	if l.fleet != nil {
		w := l.fleet.f.WireStats()
		rpcs := w.RPCs - l.wireStart.RPCs
		tasks := w.Tasks - l.wireStart.Tasks
		bytes := w.BytesOut + w.BytesIn - l.wireStart.BytesOut - l.wireStart.BytesIn
		m["wire.rpcs"] = per(float64(rpcs))
		m["wire.tasks_per_rpc"] = ratio(float64(tasks), float64(rpcs))
		m["wire.bytes_per_task"] = ratio(float64(bytes), float64(tasks))
		m["wire.ctl_shuffle_bytes"] = per(float64(w.CtlShuffleBytes - l.wireStart.CtlShuffleBytes))
		m["wire.peer_shuffle_bytes"] = per(float64(w.PeerShuffleBytes - l.wireStart.PeerShuffleBytes))
		m["wire.peer_fetches"] = per(float64(w.PeerFetches - l.wireStart.PeerFetches))
		hits, misses := l.fleet.blockStatus()
		hits -= l.blockStart[0]
		misses -= l.blockStart[1]
		m["procruntime.worker_block_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	}
	for k, v := range l.server {
		m[k] = v
	}
	if err := l.log.write(o.traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(o.log, "# traced %d queries, %d spans written to %s; tracing overhead %.1f%%\n",
		l.queries, len(l.log.spans), o.traceOut, 100*l.overhead)
	out := map[string]metric{}
	for _, pl := range perLayer {
		out[pl.name] = metric{m[pl.name], pl.unit}
	}
	return finish(out, attempted, failed, o), nil
}

// workerStatus reads one worker's GET /status counters.
func workerStatus(url string) (*procruntime.WorkerStatus, error) {
	resp, err := http.Get(url + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st procruntime.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// finish assembles the result line and prints failed_frac, which is
// not in BENCHMARK.json because it reads 0 on a correct build.
func finish(m map[string]metric, attempted, failed int, o options) *report {
	fmt.Fprintf(o.log, "# failed_frac %g ratio (%d of %d attempted)\n", frac(failed, attempted), failed, attempted)
	return &report{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}
}

// addLatency adds the latency median and tail: the highest percentile
// of the ladder with at least ten samples beyond it.
func addLatency(m map[string]metric, lat []float64, o options) {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	tailP := 0.5
	for _, p := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(len(sorted))*(1-p) >= 10 {
			tailP = p
		}
	}
	m["query_ms_p50"] = metric{server.Percentile(sorted, 0.5), "ms"}
	m["query_ms_tail"] = metric{server.Percentile(sorted, tailP), "ms"}
	fmt.Fprintf(o.log, "# query_ms_tail is p%g over %d samples\n", 100*tailP, len(sorted))
}

// liveHeapMB is the heap in use after two forced collections; the
// second drops objects sync.Pool victim caches kept through the first.
func liveHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return server.Percentile(append([]float64(nil), xs...), 0.5)
}

func frac(a, b int) float64 { return ratio(float64(a), float64(b)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
