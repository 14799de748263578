package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"sync"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/dfs"
	"dyno/internal/runtime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/server"
	"dyno/internal/tpch"
)

// The service workload drives an in-process query service with an
// open loop: request i is due at i/serviceRate seconds, whether or not
// earlier requests have returned, and its latency runs from its due
// time, so a stall also charges the requests queued behind it.
const (
	serviceShards = 2
	serviceRate   = 200.0 // offered requests per second, below saturation on 2 cores
	// Every serviceInvalidateEvery requests the generator calls
	// Server.Invalidate, the write beside the reads: it clears the plan
	// and result caches, so the next request of each key re-plans from
	// pilot runs.
	serviceInvalidateEvery = 200
	serviceZipfS           = 1.3
	serviceSF              = 10
	serviceScale           = 0.5
)

// serviceMix is experiments.LoadBench's ten-key mix (five queries x
// DYNOPT/BESTSTATIC, in popularity order) with the five RELOPT keys
// appended at the tail, so every variant's throughput is measured here
// as on the closed-loop workloads.
var serviceMix = []item{
	{baselines.VariantDynOpt, "Q8p"}, {baselines.VariantBestStatic, "Q8p"},
	{baselines.VariantDynOpt, "Q10"}, {baselines.VariantBestStatic, "Q10"},
	{baselines.VariantDynOpt, "Q9p"}, {baselines.VariantBestStatic, "Q9p"},
	{baselines.VariantDynOpt, "Q7"}, {baselines.VariantBestStatic, "Q7"},
	{baselines.VariantDynOpt, "Q2"}, {baselines.VariantBestStatic, "Q2"},
	{baselines.VariantRelOpt, "Q8p"}, {baselines.VariantRelOpt, "Q10"}, {baselines.VariantRelOpt, "Q9p"},
	{baselines.VariantRelOpt, "Q7"}, {baselines.VariantRelOpt, "Q2"},
}

func request(it item) server.Request {
	return server.Request{Query: it.query, Variant: string(it.variant)}
}

// serviceFixture is one set-up service.
type serviceFixture struct {
	srv      *server.Server
	mu       sync.Mutex
	runtimes []runtime.Runtime
	jobs     *jobTracer
}

func (f *serviceFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
}

func serviceConfig(o options) server.Config {
	cfg := server.DefaultConfig()
	cfg.SF = serviceSF
	cfg.Scale = serviceScale * o.scale
	cfg.Seed = o.seed
	cfg.Shards = serviceShards
	cfg.Parallelism = goruntime.GOMAXPROCS(0)
	// As in LoadBench, admission never queues or refuses at the offered
	// rate: with a small in-flight cap, result-cache hits would wait
	// behind the full executions an invalidation starts. A per-shard
	// result cache of 4 entries (LoadBench uses 2 over its ten keys)
	// keeps result-cache hits well above half of the requests, so the
	// median falls inside the result tier rather than at its edge, while
	// the Zipf tail still overflows it into the plan and full tiers.
	cfg.MaxInFlight = 1024
	cfg.MaxQueue = 1024
	cfg.ResultCacheSize = 4
	return cfg
}

// setupService starts the server (each shard generates its dataset)
// and warms it with one request per mix key. The shards run on
// simruntime built here, so a traced run can hook their simulators.
func setupService(o options) (*serviceFixture, time.Duration, error) {
	f := &serviceFixture{jobs: newJobTracer()}
	start := time.Now()
	cfg := serviceConfig(o)
	cfg.NewRuntime = func(c cluster.Config) (runtime.Runtime, error) {
		rt := simruntime.New(c)
		rt.Sim().SetTrace(f.jobs.onEvent)
		f.mu.Lock()
		f.runtimes = append(f.runtimes, rt)
		f.mu.Unlock()
		return rt, nil
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	f.srv = srv
	for _, it := range serviceMix {
		if _, err := srv.Execute(context.Background(), request(it)); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("warm %s: %w", it, err)
		}
	}
	return f, time.Since(start), nil
}

// serviceSample is one request's outcome.
type serviceSample struct {
	it   item
	due  time.Time
	lat  float64 // ms from due time to response
	exec float64 // ms inside Server.Execute
	resp *server.Response
	err  error
}

// openLoop is one timed phase's outcome.
type openLoop struct {
	samples []serviceSample
	wall    time.Duration
	late    []float64 // generator lateness per request, ms
	invUs   []float64
	allocB  uint64
}

func runService(o options) (*report, error) {
	var setupTimes []float64
	var f *serviceFixture
	for i := 0; i < setups; i++ {
		fx, d, err := setupService(o)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if f != nil {
			f.close()
		}
		f = fx
	}
	defer f.close()

	// Oracle and simulator reference on the service's dataset.
	cfg := serviceConfig(o)
	tc := tpch.Config{SF: cfg.SF, Scale: cfg.Scale, Seed: cfg.Seed}
	genStart := time.Now()
	cat, err := tpch.Generate(dfs.New(), tc)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(genStart)
	orc, err := buildOracle(cat, o.log, o.perturbOracle)
	if err != nil {
		return nil, err
	}
	ref, err := simReference(tc, serviceMix, orc)
	if err != nil {
		return nil, err
	}
	var virtual float64
	for _, it := range serviceMix {
		virtual += ref[it]
	}
	fmt.Fprintf(o.log, "# service: SF%g scale %g, %d shards, %g req/s offered, Zipf(%g) over %d keys, invalidate every %d requests\n",
		cfg.SF, cfg.Scale, serviceShards, serviceRate, serviceZipfS, len(serviceMix), serviceInvalidateEvery)

	draw := rand.New(rand.NewSource(o.drawSeed()))
	if !o.trace {
		rep := f.loop(o.seconds, draw, orc, nil).endToEnd(setupTimes, virtual, o)
		heap, err := f.settledHeapMB()
		if err != nil {
			return nil, err
		}
		rep.Metrics["live_heap_mb"] = metric{heap, "MB"}
		return rep, nil
	}
	plain := f.loop(o.seconds/2, draw, orc, nil)
	l := newLayers(newSpanLog(), cat)
	wasted0 := f.wasted()
	f.jobs.take()
	f.jobs.on.Store(true)
	traced := f.loop(o.seconds/2, draw, orc, l)
	f.jobs.on.Store(false)
	collectService(traced, f.jobs, l)
	l.wasted = f.wasted() - wasted0
	l.generate = genTime
	l.oracle = orc.elapsed
	l.overhead = median(traced.latencies())/median(plain.latencies()) - 1
	return l.report(o, len(plain.samples)+len(traced.samples), plain.failed()+traced.failed())
}

// settledHeapMB measures the live heap after one invalidation and one
// request per mix key, in order. Each shard's simulator keeps the jobs
// of its last queries until it next steps, so without this final pass
// the reading depends on which requests happened to finish last.
func (f *serviceFixture) settledHeapMB() (float64, error) {
	f.srv.Invalidate()
	for _, it := range serviceMix {
		if _, err := f.srv.Execute(context.Background(), request(it)); err != nil {
			return 0, fmt.Errorf("settle %s: %w", it, err)
		}
	}
	return liveHeapMB(), nil
}

func (f *serviceFixture) wasted() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var w float64
	for _, rt := range f.runtimes {
		w += rt.Sim().WastedSec()
	}
	return w
}

// loop runs one open-loop phase of the given length.
func (f *serviceFixture) loop(seconds float64, draw *rand.Rand, orc *oracle, l *layers) *openLoop {
	n := int(serviceRate * seconds)
	keys := zipfDeck(n, draw)
	ph := &openLoop{samples: make([]serviceSample, n)}
	var frontMu sync.Mutex
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / serviceRate * float64(time.Second)))
		waitUntil(due)
		ph.late = append(ph.late, ms(time.Since(due)))
		if i > 0 && i%serviceInvalidateEvery == 0 {
			t := time.Now()
			f.srv.Invalidate()
			ph.invUs = append(ph.invUs, us(time.Since(t)))
		}
		it := serviceMix[keys[i]]
		wg.Add(1)
		go func(s *serviceSample, due time.Time) {
			defer wg.Done()
			s.it, s.due = it, due
			t0 := time.Now()
			resp, err := f.srv.Execute(context.Background(), request(it))
			end := time.Now()
			s.lat, s.exec = ms(end.Sub(due)), ms(end.Sub(t0))
			if err == nil {
				s.resp = resp
				err = orc.check(it.query, resp.Rows)
			}
			s.err = err
			if l != nil {
				frontMu.Lock()
				l.frontEnd(tpch.MustQuerySQL(it.query))
				frontMu.Unlock()
			}
		}(&ph.samples[i], due)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	goruntime.ReadMemStats(&ms1)
	ph.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return ph
}

// zipfDeck returns n mix indices, each key appearing in proportion to
// its Zipf(serviceZipfS) probability (the distribution
// rand.NewZipf(r, serviceZipfS, 1, len-1) draws from), in an order
// shuffled by draw. Drawing the counts exactly instead of sampling
// them keeps every variant's share of the load the same across seeds;
// the seed still decides the order.
func zipfDeck(n int, draw *rand.Rand) []int {
	weights := make([]float64, len(serviceMix))
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -serviceZipfS)
		total += weights[k]
	}
	deck := make([]int, 0, n)
	var cum float64
	for k, w := range weights {
		cum += w
		for len(deck) < int(math.Round(float64(n)*cum/total)) {
			deck = append(deck, k)
		}
	}
	draw.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	return deck
}

// waitUntil returns at t. time.Sleep alone overshoots by about half a
// millisecond here, more than a result-cache hit takes, so the last
// millisecond is spent yielding in a loop.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		goruntime.Gosched()
	}
}

func (ph *openLoop) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (ph *openLoop) latencies() []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.err == nil {
			out = append(out, s.lat)
		}
	}
	return out
}

func (ph *openLoop) endToEnd(setupTimes []float64, virtual float64, o options) *report {
	lat := ph.latencies()
	perVar := map[baselines.Variant]int{}
	for _, s := range ph.samples {
		if s.err == nil {
			perVar[s.it.variant]++
		} else {
			fmt.Fprintf(o.log, "# service %s request failed: %v\n", s.it, s.err)
		}
	}
	wall := ph.wall.Seconds()
	m := map[string]metric{
		"setup_s":            {median(setupTimes), "s"},
		"qps":                {float64(len(lat)) / wall, "1/s"},
		"virtual_s":          {virtual, "s"},
		"alloc_mb_per_query": {float64(ph.allocB) / 1e6 / float64(max(len(lat), 1)), "MB"},
	}
	for _, v := range variants {
		m[variantMetric[v]] = metric{float64(perVar[v]) / wall, "1/s"}
	}
	addLatency(m, lat, o)
	tiers := map[string]int{}
	for _, s := range ph.samples {
		if s.resp != nil {
			tiers[tierOf(s.resp)]++
		}
	}
	fmt.Fprintf(o.log, "# tiers: result %d, dedup %d, plan %d, full %d\n", tiers["result"], tiers["dedup"], tiers["plan"], tiers["full"])
	fmt.Fprintf(o.log, "# %d requests in %.2f s; generator lateness p50 %.3f ms, max %.3f ms\n",
		len(ph.samples), wall, median(ph.late), maxOf(ph.late))
	return finish(m, len(ph.samples), ph.failed(), o)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// collectService derives the per-layer numbers a service run can observe:
// tier shares and latencies from the Response flags, admission wait as
// Execute wall minus Response.WallMillis, engine counters from the
// responses of requests that executed (full and plan tiers), and job
// intervals from the shards' simulator trace hooks.
func collectService(ph *openLoop, jt *jobTracer, l *layers) {
	sv := map[string]float64{}
	l.server = sv
	tiers := map[string][]float64{}
	var admit []float64
	refused := 0
	var execWall float64
	for i, s := range ph.samples {
		l.log.add(span{Name: s.it.String(), Layer: "query", Query: fmt.Sprintf("r%d", i), Start: s.due, End: s.due.Add(time.Duration(s.lat * 1e6))})
		if s.err != nil {
			if errors.Is(s.err, server.ErrOverloaded) {
				refused++
			}
			continue
		}
		r := s.resp
		tier := tierOf(r)
		tiers[tier] = append(tiers[tier], s.exec)
		admit = append(admit, s.exec-r.WallMillis)
		if tier == "full" || tier == "plan" {
			execWall += r.WallMillis
			l.pilotJobs += r.PilotJobs
			l.iterations += r.Iterations
			l.reused += r.MemoGroupsReused
			l.optimizeSec += r.OptimizeSec
			l.jobs += r.Jobs
		}
	}
	n := float64(len(ph.samples))
	for _, t := range []string{"result", "dedup", "plan", "full"} {
		sv["server."+t+"_frac"] = float64(len(tiers[t])) / n
	}
	sv["server.result_ms_p50"] = median(tiers["result"])
	sv["server.plan_ms_p50"] = median(tiers["plan"])
	sv["server.full_ms_p50"] = median(tiers["full"])
	sv["server.admission_wait_ms_p50"] = median(admit)
	sv["server.refused"] = float64(refused)
	sv["server.invalidate_us"] = median(ph.invUs)

	byQuery, attempts, finished, done := jt.take()
	var jobsWall time.Duration
	for _, jobs := range byQuery {
		l.pilot += union(jobs, ofKind("pilot"))
		l.join += union(jobs, ofKind("join"))
		l.final += union(jobs, ofKind("final"))
		all := union(jobs, nil)
		jobsWall += all
		for _, j := range jobs {
			l.log.add(j)
		}
	}
	l.queries = len(ph.samples)
	l.client = time.Duration(execWall*1e6) - jobsWall
	l.unattributed = l.client
	l.attempts, l.tasks, l.files = attempts, finished, done
}

// tierOf names the serving tier that answered a request.
func tierOf(r *server.Response) string {
	switch {
	case r.ResultCacheHit:
		return "result"
	case r.Deduped:
		return "dedup"
	case r.PlanCacheHit:
		return "plan"
	}
	return "full"
}
