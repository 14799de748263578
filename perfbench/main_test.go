package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyOptions runs a workload on a small dataset for a short phase.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     3,
		seconds:  0.5,
		trace:    trace,
		scale:    0.1,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		log:      io.Discard,
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of
// BENCHMARK.json once untraced and once traced, at tiny scale, and
// requires a correct result carrying exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("workload %q in BENCHMARK.json is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep, err := run(tinyOptions(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestOracleGateRejectsPerturbedResult corrupts one expected row and
// requires every workload's gate to report the mismatch.
func TestOracleGateRejectsPerturbedResult(t *testing.T) {
	for name, run := range workloads {
		o := tinyOptions(t, name, false)
		o.perturbOracle = true
		rep, err := run(o)
		if err != nil {
			// proc-fleet and service check their simulator reference
			// against the oracle before timing and stop there.
			if !errors.Is(err, errMismatch) {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: perturbed oracle accepted: correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}
