package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// repoRoot is the repository root as seen from this package directory.
const repoRoot = "../../.."

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// Each workload runs briefly, untraced and traced, with every answer
// check passing, no failed operation, a positive value for every
// end-to-end metric and for the per-layer metrics of the layers the
// workload exercises.
func TestWorkloadsSmoke(t *testing.T) {
	layers := map[string][]string{
		"oneshot": {"mincut.find_us", "core.side_build_us", "core.max_flow_calls", "maxflow.augmenting_paths", "engines.rung_core_share"},
		"whatif":  {"core.evalbatch_ns_per_scenario", "core.eval_us", "plancache.key_us", "plancache.hit_ratio", "core.kernel_terms"},
		"churn":   {"core.delta_us", "graph.mutation_apply_us", "core.delta_reused_checks", "core.eval_us"},
		"service": {"relcalcd.compile_us", "relcalcd.outside_solver_eval_us", "client.eval_rtt_p50_us", "relcalcd.alloc_bytes_per_request"},
	}
	for _, name := range []string{"oneshot", "whatif", "churn", "service"} {
		if name == "service" && testing.Short() {
			continue
		}
		for _, trace := range []bool{false, true} {
			o := opts{seed: 5, seconds: 0.2, trace: trace, root: repoRoot, work: t.TempDir()}
			out, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.wrong) > 0 || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d failed %d checks %v", name, trace, out.attempted, out.failed, out.wrong)
			}
			want := layers[name]
			if !trace {
				want = nil
				for _, d := range endToEnd {
					want = append(want, d.Name)
				}
			}
			for _, m := range want {
				if !(out.metrics[m] > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", name, trace, m, out.metrics[m])
				}
			}
			// The workloads' premises: oneshot never finds a plan in the
			// cache, and the service's mutations always run the delta walk.
			if trace && name == "oneshot" && out.metrics["plancache.hit_ratio"] != 0 {
				t.Errorf("oneshot: plan-cache hit ratio %v, want 0", out.metrics["plancache.hit_ratio"])
			}
			if trace && name == "service" && out.metrics["relcalcd.mutate_cached_share"] != 0 {
				t.Errorf("service: %v of mutations answered from the plan cache, want none", out.metrics["relcalcd.mutate_cached_share"])
			}
		}
	}
}

func TestTailMedianSampleRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i % 1000)
		}
		return xs
	}
	if v := tailMedian(ramp(90), nil); v != 0 {
		t.Errorf("p90 of 90 samples (nine beyond it) = %v, want it withheld", v)
	}
	if v := tailMedian(ramp(100), nil); v == 0 {
		t.Error("p90 of 100 samples (ten beyond it) was withheld")
	}
	// Four chunks of 2000 samples; one has a stall in its tail.
	xs := ramp(8000)
	for i := 0; i < 400; i++ {
		xs[i] = 1e6
	}
	if v := tailMedian(xs, nil); v >= 1000 {
		t.Errorf("a stall in one chunk set the median p90 to %v", v)
	}
	// Chunks are cut only at round ends: three rounds of 1500 samples
	// make one chunk of 3000 and leave 1500, too few for a chunk.
	if got := len(tailChunks(ramp(4500), []int{1500, 3000, 4500})); got != 1 {
		t.Errorf("%d chunks, want 1", got)
	}
}
