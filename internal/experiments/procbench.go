package experiments

import (
	"fmt"
	"net"
	"net/http"
	goruntime "runtime"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/expr"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/tpch"
)

// ProcBench measures the proc backend's data plane: the TPC-H workload
// runs on a real worker fleet (in-process HTTP servers, the handler
// cmd/dynoworker serves) and the report gives RPC counts, payload
// bytes (split controller vs peer shuffle) and wall time. The same
// queries also run on the simulator: virtual time and job counts must
// match exactly (the wire plane must be invisible to the simulated
// accounting), and ProcBench errors out if they diverge.

// ProcBenchReport is the procbench experiment's JSON report
// (BENCH_proc.json).
type ProcBenchReport struct {
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Scale       float64  `json:"scale"`
	Seed        int64    `json:"seed"`
	Workers     int      `json:"workers"`
	Parallelism int      `json:"parallelism"`
	Queries     []string `json:"queries"`

	WallSec      float64 `json:"wallSec"`
	RPCs         int64   `json:"rpcs"`
	Tasks        int64   `json:"tasks"` // task attempts on the wire
	TasksPerRPC  float64 `json:"tasksPerRpc"`
	BytesOut     int64   `json:"bytesOut"`
	BytesIn      int64   `json:"bytesIn"`
	BytesPerTask float64 `json:"bytesPerTask"` // (out+in)/tasks
	VirtualSec   float64 `json:"virtualSec"`   // summed simulated time, equal to the sim's
	Jobs         int     `json:"jobs"`         // join-block plus pilot jobs, equal to the sim's

	// Byte split: shuffle pairs riding the controller dispatch plane
	// (mirror fallback only) vs fetched worker-to-worker.
	CtlShuffleBytes  int64 `json:"ctlShuffleBytes"`
	PeerShuffleBytes int64 `json:"peerShuffleBytes"`
	PeerFetches      int64 `json:"peerFetches"`
}

// procBenchWorkers is the benchmark fleet size; Parallelism stays
// larger so waves overlap on each worker and batching has co-arrivals
// to conflate.
const (
	procBenchWorkers     = 2
	procBenchParallelism = 8
)

// ProcBench runs the proc data-plane benchmark and its sim cross-check.
func ProcBench(cfg Config) (*ProcBenchReport, error) {
	cfg = cfg.normalized()
	queries := tpch.QueryNames
	rep := &ProcBenchReport{
		GOMAXPROCS:  goruntime.GOMAXPROCS(0),
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Workers:     procBenchWorkers,
		Parallelism: procBenchParallelism,
		Queries:     queries,
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Parallelism = procBenchParallelism
	simVirtual, simJobs, err := runProcBenchQueries(cfg, simruntime.New(ccfg), queries)
	if err != nil {
		return nil, fmt.Errorf("procbench sim: %w", err)
	}

	fleet, err := procruntime.NewFleet(procruntime.Config{StaleAfter: time.Hour}) // in-process workers do not heartbeat
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	caps := wire.Caps{Codecs: []string{wire.CodecBinary}, Batch: true, PeerShuffle: true}
	for i := 0; i < procBenchWorkers; i++ {
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, cfg.UDF)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: procruntime.NewWorker(reg).Handler()}
		defer srv.Close()
		go srv.Serve(ln)
		if _, err := fleet.RegisterWorkerCaps("http://"+ln.Addr().String(), caps); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	rep.VirtualSec, rep.Jobs, err = runProcBenchQueries(cfg, procruntime.New(fleet, ccfg), queries)
	if err != nil {
		return nil, fmt.Errorf("procbench proc: %w", err)
	}
	rep.WallSec = time.Since(start).Seconds()
	if rep.VirtualSec != simVirtual || rep.Jobs != simJobs {
		return nil, fmt.Errorf("procbench: proc diverges from sim: virtual %v vs %v s, jobs %d vs %d — the wire plane leaked into the accounting",
			rep.VirtualSec, simVirtual, rep.Jobs, simJobs)
	}

	st := fleet.WireStats()
	rep.RPCs, rep.Tasks = st.RPCs, st.Tasks
	rep.TasksPerRPC = ratio(float64(st.Tasks), float64(st.RPCs))
	rep.BytesOut, rep.BytesIn = st.BytesOut, st.BytesIn
	rep.BytesPerTask = ratio(float64(st.BytesOut+st.BytesIn), float64(st.Tasks))
	rep.CtlShuffleBytes = st.CtlShuffleBytes
	rep.PeerShuffleBytes = st.PeerShuffleBytes
	rep.PeerFetches = st.PeerFetches
	return rep, nil
}

// runProcBenchQueries runs every query once under DYNOPT on rt and
// returns the summed virtual seconds and join-block plus pilot job
// count.
func runProcBenchQueries(cfg Config, rt runtime.Runtime, queries []string) (float64, int, error) {
	cat, err := tpch.Generate(rt.FS(), tpch.Config{SF: 10, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return 0, 0, err
	}
	var virtual float64
	var jobs int
	for _, query := range queries {
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, cfg.UDF)
		env := rt.NewEnv(reg)
		eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, cat,
			optimizer.DefaultConfig(float64(env.ClusterConfig().SlotMemory)), experimentOptions())
		if err != nil {
			return 0, 0, err
		}
		sql, err := tpch.QuerySQL(query)
		if err != nil {
			return 0, 0, err
		}
		res, err := eng.ExecuteSQL(sql)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", query, err)
		}
		virtual += res.TotalSec
		jobs += res.Jobs
		if res.Pilot != nil {
			jobs += res.Pilot.Jobs
		}
	}
	return virtual, jobs, nil
}
