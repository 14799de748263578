// Command perfbench is DYNO's outside-in benchmark. It drives the
// program's public packages with one of three workloads, checks every
// result against the internal/naive oracle, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output:
//
//	go run . --workload tpch-sim --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metric definitions and the
// layer -> metric -> end-to-end prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every workload's dataset row counts; the smoke
	// test shrinks it, the command keeps 1.
	scale float64
	// traceOut is the Chrome trace-event file a traced run writes.
	traceOut string
	// perturbOracle corrupts one expected row after the oracle runs, so
	// a test can prove the gate rejects a wrong result.
	perturbOracle bool
	log           io.Writer
}

// drawSeed seeds the request draws (pass orders, the service's request
// deck); --seed itself seeds the generated data.
func (o options) drawSeed() int64 { return o.seed*7919 + 17 }

// workloads maps each name in BENCHMARK.json to its driver.
var workloads = map[string]func(options) (*report, error){
	"tpch-sim":   runTPCHSim,
	"proc-fleet": runProcFleet,
	"service":    runService,
}

func main() {
	opts := options{scale: 1, log: os.Stdout}
	flag.StringVar(&opts.workload, "workload", "", "workload: tpch-sim, proc-fleet or service")
	flag.Int64Var(&opts.seed, "seed", 1, "seed for the generated data and the request draws")
	flag.Float64Var(&opts.seconds, "seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&opts.traceOut, "trace-out", "", "Chrome trace-event JSON written by a traced run (default .bench_build/perfbench-trace-<workload>.json)")
	flag.Parse()
	opts.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if opts.trace && opts.traceOut == "" {
		opts.traceOut = ".bench_build/perfbench-trace-" + opts.workload + ".json"
	}
	run, ok := workloads[opts.workload]
	if !ok || opts.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s) and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	procs := min(goruntime.NumCPU(), 2)
	goruntime.GOMAXPROCS(procs)
	stamp(opts, procs)

	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// stamp prints the run's provenance ahead of any measurement.
func stamp(opts options, procs int) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(opts.log, "# workload=%s data seed=%d request-draw seed=%d seconds=%g trace=%v\n",
		opts.workload, opts.seed, opts.drawSeed(), opts.seconds, opts.trace)
	fmt.Fprintf(opts.log, "# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		goruntime.NumCPU(), procs, goruntime.Version(), commit)
	if procs == 1 {
		fmt.Fprintln(opts.log, "# WARNING: GOMAXPROCS=1: parallel executor, worker fleet and shards share one core")
	}
}
