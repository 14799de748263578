package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/dfs"
	"dyno/internal/jaql"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/tpch"
)

// closedLoop describes one closed-loop workload: a single client runs
// passes over every (variant, query) item, each query after the
// previous one returns.
type closedLoop struct {
	name  string
	sf    float64
	scale float64 // row-count multiplier at scale 1 of --scale
	proc  bool    // run on procruntime with an in-process worker fleet
}

// tpch-sim keeps the paper's SF100 virtual volume; proc-fleet uses
// SF10, as experiments.ProcBench does, because split counts follow the
// virtual volume and every proc task is an HTTP round trip. The row
// counts (15,000 and 9,000 lineitem rows) let a run of 15 seconds
// complete the minimum number of passes.
var (
	tpchSim   = closedLoop{name: "tpch-sim", sf: 100, scale: 0.25}
	procFleet = closedLoop{name: "proc-fleet", sf: 10, scale: 1.5, proc: true}
)

func runTPCHSim(o options) (*report, error)   { return tpchSim.run(o) }
func runProcFleet(o options) (*report, error) { return procFleet.run(o) }

// variants are the paper's three compared systems, in report order.
var variants = []baselines.Variant{baselines.VariantDynOpt, baselines.VariantBestStatic, baselines.VariantRelOpt}

// variantMetric names each variant's end-to-end throughput metric.
var variantMetric = map[baselines.Variant]string{
	baselines.VariantDynOpt:     "dynopt_qps",
	baselines.VariantBestStatic: "beststatic_qps",
	baselines.VariantRelOpt:     "relopt_qps",
}

// item is one query of a pass.
type item struct {
	variant baselines.Variant
	query   string
}

func (it item) String() string { return string(it.variant) + "/" + it.query }

func passItems() []item {
	var items []item
	for _, v := range variants {
		for _, q := range tpch.QueryNames {
			items = append(items, item{v, q})
		}
	}
	return items
}

// setups is how many times a run sets a workload up; setup_s is the
// median.
const setups = 3

// minPasses is the fewest passes a measured phase runs, even past
// --seconds: 7 passes of 15 queries leave at least ten samples beyond
// p90, so query_ms_tail stays p90 when a change slows the loop.
const minPasses = 7

// fixture is one set-up instance of a closed-loop workload.
type fixture struct {
	rt    runtime.Runtime
	cat   *jaql.Catalog
	ccfg  cluster.Config
	fleet *fleet
}

func (f *fixture) close() {
	if f.fleet != nil {
		f.fleet.close()
	}
}

func (c closedLoop) tpchConfig(o options) tpch.Config {
	return tpch.Config{SF: c.sf, Scale: c.scale * o.scale, Seed: o.seed}
}

func clusterConfig() cluster.Config {
	ccfg := cluster.DefaultConfig()
	ccfg.Parallelism = goruntime.GOMAXPROCS(0)
	return ccfg
}

// setup builds the runtime (and worker fleet), generates the data and
// runs one untimed warm pass, which fills the per-block batch images,
// the workers' block caches and the fleet's block mirror.
func (c closedLoop) setup(o options) (*fixture, time.Duration, error) {
	f := &fixture{ccfg: clusterConfig()}
	start := time.Now()
	if c.proc {
		fl, err := startFleet(2)
		if err != nil {
			return nil, 0, err
		}
		f.fleet = fl
		f.rt = procruntime.New(fl.f, f.ccfg)
	} else {
		f.rt = simruntime.New(f.ccfg)
	}
	cat, err := tpch.Generate(f.rt.FS(), c.tpchConfig(o))
	if err != nil {
		f.close()
		return nil, 0, err
	}
	f.cat = cat
	for _, it := range passItems() {
		if _, _, err := f.runItem(it, nil); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("warm pass %s: %w", it, err)
		}
	}
	return f, time.Since(start), nil
}

// engineOptions are the experiments' engine options: the paper's
// defaults with the pilot sample size k and the KMV synopsis scaled to
// the generated row counts.
func engineOptions() core.Options {
	opts := core.DefaultOptions()
	opts.K = 256
	opts.KMVSize = 512
	return opts
}

// runItem executes one query on a fresh engine and a fresh virtual
// clock, so per-query virtual seconds repeat exactly. probe, when
// non-nil, instruments the execution.
func (f *fixture) runItem(it item, probe *queryProbe) (*core.Result, time.Duration, error) {
	env := f.rt.NewEnv(newRegistry())
	env.Sim = cluster.New(f.ccfg)
	eng, err := baselines.NewEngine(it.variant, env, f.cat, optimizer.DefaultConfig(float64(f.ccfg.SlotMemory)), engineOptions())
	if err != nil {
		return nil, 0, err
	}
	if probe != nil {
		probe.instrument(env, eng)
	}
	start := time.Now()
	res, err := eng.ExecuteSQL(tpch.MustQuerySQL(it.query))
	lat := time.Since(start)
	if probe != nil {
		probe.finish(start, start.Add(lat), env, res)
	}
	return res, lat, err
}

// reference holds each item's virtual seconds.
type reference map[item]float64

// simReference runs every item once on a fresh simruntime over data
// generated from tc, checks each result against the oracle, and returns
// the virtual seconds: the differential contract says a proc execution
// returns the same rows and the same virtual seconds.
func simReference(tc tpch.Config, items []item, orc *oracle) (reference, error) {
	f := &fixture{ccfg: clusterConfig()}
	f.rt = simruntime.New(f.ccfg)
	cat, err := tpch.Generate(f.rt.FS(), tc)
	if err != nil {
		return nil, err
	}
	f.cat = cat
	ref := reference{}
	for _, it := range items {
		res, _, err := f.runItem(it, nil)
		if err == nil {
			err = orc.check(it.query, res.Rows)
		}
		if err != nil {
			return nil, fmt.Errorf("sim reference %s: %w", it, err)
		}
		ref[it] = res.TotalSec
	}
	return ref, nil
}

// loopStats accumulates one timed phase.
type loopStats struct {
	lat       []float64 // per-query latency, ms
	attempted int
	failed    int
	passes    int
	virtual   float64 // virtual seconds of the first pass
	allocB    uint64
	// tally counts completed queries and their wall time per throughput
	// metric: "qps" for all queries, and each variant's metric.
	tally map[string]*tally
}

type tally struct {
	n    int
	busy time.Duration
}

// rate is completed queries per second of their wall time.
func (st *loopStats) rate(metric string) float64 {
	t := st.tally[metric]
	if t == nil || t.busy <= 0 {
		return 0
	}
	return float64(t.n) / t.busy.Seconds()
}

func (c closedLoop) run(o options) (*report, error) {
	var setupTimes []float64
	var f *fixture
	for i := 0; i < setups; i++ {
		fx, d, err := c.setup(o)
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

	orc, err := buildOracle(f.cat, o.log, o.perturbOracle)
	if err != nil {
		return nil, err
	}
	// want holds each item's expected virtual seconds: the sim
	// reference on proc-fleet, the first timed execution on tpch-sim
	// (the simulator must repeat itself exactly).
	want := reference{}
	if c.proc {
		if want, err = simReference(c.tpchConfig(o), passItems(), orc); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(o.log, "# %s: SF%g scale %g, %d-query passes, setup medians over %d set-ups\n",
		c.name, c.sf, c.scale*o.scale, len(passItems()), setups)

	draw := rand.New(rand.NewSource(o.drawSeed()))
	if !o.trace {
		st := c.loop(f, draw, o.seconds, minPasses, orc, want, nil)
		return c.endToEnd(st, setupTimes, o), nil
	}
	// Traced run: an untraced half, then a traced half; the per-layer
	// numbers come from the traced half, and the throughput ratio of
	// the halves is the tracing overhead.
	plain := c.loop(f, draw, o.seconds/2, 1, orc, want, nil)
	tr := newLayers(newSpanLog(), f.cat)
	if c.proc {
		tr.fleet = f.fleet
		tr.wireStart = f.fleet.f.WireStats()
		tr.blockStart[0], tr.blockStart[1] = f.fleet.blockStatus()
	}
	traced := c.loop(f, draw, o.seconds/2, 1, orc, want, tr)
	if c.proc {
		tr.blockEncode = encodeBlocks(f.cat)
	}
	genStart := time.Now()
	if _, err := tpch.Generate(dfs.New(), c.tpchConfig(o)); err != nil {
		return nil, err
	}
	tr.generate = time.Since(genStart)
	tr.oracle = orc.elapsed
	tr.overhead = 1 - traced.rate("qps")/plain.rate("qps")
	return tr.report(o, traced.attempted+plain.attempted, traced.failed+plain.failed)
}

// loop runs whole passes, each in a freshly drawn order, until the
// phase has lasted at least seconds. Every result is checked against
// the oracle and its virtual seconds against want; checks are not
// timed.
func (c closedLoop) loop(f *fixture, draw *rand.Rand, seconds float64, passes int,
	orc *oracle, want reference, tr *layers) *loopStats {
	st := &loopStats{tally: map[string]*tally{"qps": {}}}
	for _, v := range variants {
		st.tally[variantMetric[v]] = &tally{}
	}
	items := passItems()
	var ms0, ms1 goruntime.MemStats
	goruntime.GC() // set-up garbage is not the timed phase's to collect
	goruntime.ReadMemStats(&ms0)
	start := time.Now()
	for st.passes < passes || time.Since(start).Seconds() < seconds {
		for _, i := range draw.Perm(len(items)) {
			it := items[i]
			var probe *queryProbe
			if tr != nil {
				probe = tr.probe(it)
			}
			res, lat, err := f.runItem(it, probe)
			st.attempted++
			if err == nil {
				err = orc.check(it.query, res.Rows)
			}
			if err == nil {
				if v, ok := want[it]; !ok {
					want[it] = res.TotalSec
				} else if v != res.TotalSec {
					err = fmt.Errorf("virtual seconds %v, want %v", res.TotalSec, v)
				}
			}
			if err != nil {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", c.name, it, err)
				continue
			}
			st.lat = append(st.lat, float64(lat.Nanoseconds())/1e6)
			for _, t := range []*tally{st.tally["qps"], st.tally[variantMetric[it.variant]]} {
				t.n++
				t.busy += lat
			}
			if st.passes == 0 {
				st.virtual += res.TotalSec
			}
		}
		st.passes++
	}
	goruntime.ReadMemStats(&ms1)
	st.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return st
}

func (c closedLoop) endToEnd(st *loopStats, setupTimes []float64, o options) *report {
	m := map[string]metric{
		"setup_s":            {median(setupTimes), "s"},
		"virtual_s":          {st.virtual, "s"},
		"alloc_mb_per_query": {float64(st.allocB) / 1e6 / float64(max(len(st.lat), 1)), "MB"},
	}
	for name := range st.tally {
		m[name] = metric{st.rate(name), "1/s"}
	}
	addLatency(m, st.lat, o)
	m["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	fmt.Fprintf(o.log, "# %d passes, %d queries, %.1f s busy\n", st.passes, len(st.lat), st.tally["qps"].busy.Seconds())
	return finish(m, st.attempted, st.failed, o)
}

// fleet is an in-process worker fleet on loopback HTTP.
type fleet struct {
	f       *procruntime.Fleet
	urls    []string
	servers []*http.Server
	serving sync.WaitGroup
	spill   string
}

// startFleet starts a controller and n workers on the default data
// plane: binary codec, batched dispatch, peer shuffle. The block mirror
// lives under .bench_build so a run writes only inside its checkout.
func startFleet(n int) (*fleet, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	spill, err := os.MkdirTemp(".bench_build", "spill-*")
	if err != nil {
		return nil, err
	}
	if spill, err = filepath.Abs(spill); err != nil {
		return nil, err
	}
	pf, err := procruntime.NewFleet(procruntime.Config{SpillDir: spill, StaleAfter: time.Hour})
	if err != nil {
		os.RemoveAll(spill)
		return nil, err
	}
	fl := &fleet{f: pf, spill: spill}
	caps := wire.Caps{Codecs: []string{wire.CodecBinary}, Batch: true, PeerShuffle: true}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, err
		}
		srv := &http.Server{Handler: procruntime.NewWorker(newRegistry()).Handler()}
		fl.servers = append(fl.servers, srv)
		fl.serving.Add(1)
		go func() {
			defer fl.serving.Done()
			srv.Serve(ln)
		}()
		url := "http://" + ln.Addr().String()
		fl.urls = append(fl.urls, url)
		pf.RegisterWorkerCaps(url, caps)
	}
	return fl, nil
}

func (fl *fleet) close() {
	fl.f.Close()
	for _, s := range fl.servers {
		s.Close()
	}
	fl.serving.Wait()
	os.RemoveAll(fl.spill)
}

// blockStatus sums the workers' block-cache hit and miss counters.
func (fl *fleet) blockStatus() (hits, misses int64) {
	for _, u := range fl.urls {
		st, err := workerStatus(u)
		if err != nil {
			continue
		}
		hits += st.BlockHits
		misses += st.BlockMisses
	}
	return hits, misses
}

// encodeBlocks times wire.EncodeBlock over every base-table block: the
// block mirror's encode cost for this dataset.
func encodeBlocks(cat *jaql.Catalog) time.Duration {
	start := time.Now()
	for _, t := range cat.Tables() {
		f, _ := cat.Lookup(t)
		for _, b := range f.Blocks() {
			wire.EncodeBlock(b.Records())
		}
	}
	return time.Since(start)
}
