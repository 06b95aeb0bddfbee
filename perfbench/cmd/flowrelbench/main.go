// Command flowrelbench is flowrel's end-to-end benchmark. It runs one
// workload for a fixed time and prints every end-to-end metric (tracing
// off) or every per-layer metric (--trace 1) by name and unit, then, as
// its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": ..., "unit": "1/s"}, ...}}
//
// Workloads: oneshot (cold Compute on never-seen topologies), whatif
// (batched and single evaluation of compiled plans), churn (Plan.Mutate
// plus Eval along single-link event streams) and service (a closed loop
// against a relcalcd child process). The timed paths use only the public
// flowrel API and relcalcd's HTTP API. Every answer is checked against
// computations made apart from the timed code (see README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload oneshot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of flowrel sees, reported by every
// workload with tracing off. Each workload defines its operation: a cold
// solve (oneshot), a batched scenario and a single what-if query
// (whatif), a mutation plus evaluation (churn), a request and an eval
// round trip (service); README.md maps them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload never calls reads 0, and so does
// trace.overhead_pct on the workloads whose timed calls run no tracer
// (all but oneshot).
var perLayer = []metricDef{
	{"mincut.find_us", "us"},
	{"core.side_build_us", "us"},
	{"core.side_configs", "count"},
	{"core.max_flow_calls", "count"},
	{"core.max_flow_per_config", "ratio"},
	{"core.pruned_closure", "count"},
	{"core.pruned_capacity", "count"},
	{"core.compile_other_us", "us"},
	{"core.eval_us", "us"},
	{"core.evalbatch_ns_per_scenario", "ns"},
	{"core.kernel_terms", "count"},
	{"core.kernel_segments", "count"},
	{"core.eval_blocks", "count"},
	{"core.eval_bytes_per_scenario", "B"},
	{"core.delta_us", "us"},
	{"core.delta_max_flow_calls", "count"},
	{"core.delta_reused_checks", "count"},
	{"core.delta_fallbacks", "count"},
	{"maxflow.augmenting_paths", "count"},
	{"engines.rung_core_share", "ratio"},
	{"plancache.key_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"graph.mutation_apply_us", "us"},
	{"relcalcd.eval_handler_us", "us"},
	{"relcalcd.evalbatch_handler_us", "us"},
	{"relcalcd.compile_us", "us"},
	{"relcalcd.mutate_us", "us"},
	{"relcalcd.mutate_cached_share", "ratio"},
	{"relcalcd.submit_cached_share", "ratio"},
	{"relcalcd.outside_solver_eval_us", "us"},
	{"relcalcd.outside_solver_evalbatch_us", "us"},
	{"relcalcd.outside_solver_mutate_us", "us"},
	{"relcalcd.outside_solver_submit_us", "us"},
	{"relcalcd.alloc_bytes_per_request", "B"},
	{"relcalcd.gc_cycles", "count"},
	{"relcalcd.rejected", "count"},
	{"relcalcd.cpu_s", "s"},
	{"client.eval_rtt_p50_us", "us"},
	{"client.evalbatch_rtt_p50_us", "us"},
	{"client.mutate_rtt_p50_us", "us"},
	{"client.submit_rtt_p50_us", "us"},
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"client.cpu_s", "s"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// opts are the command-line settings one workload run receives.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // repository root, where relcalcd is built from
	work    string // scratch directory inside the checkout
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted int64
	failed    int64
	// wrong lists answer-check failures: a wrong answer or a violated
	// property. Any entry makes the run incorrect.
	wrong []string
	// notes lists failed operations that returned no answer: an error, a
	// refused request or a partial answer. They count in failed but leave
	// the run correct.
	notes   []string
	metrics map[string]float64
}

// checkf records a failed answer check (at most a few messages are kept).
func (o *outcome) checkf(format string, args ...any) {
	if len(o.wrong) < 8 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	} else if len(o.wrong) == 8 {
		o.wrong = append(o.wrong, "further check failures omitted")
	}
}

// wrongf records one operation that returned a wrong answer: a failed
// operation and a failed answer check.
func (o *outcome) wrongf(format string, args ...any) {
	o.failed++
	o.checkf(format, args...)
}

// fail records n failed operations that returned no answer (at most a
// few messages are kept).
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// check records err, when non-nil, as a failed answer check.
func (o *outcome) check(err error) {
	if err != nil {
		o.checkf("%v", err)
	}
}

var workloads = map[string]func(opts) (*outcome, error){
	"oneshot": runOneshot,
	"whatif":  runWhatif,
	"churn":   runChurn,
	"service": runService,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowrelbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: oneshot, whatif, churn or service")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		root     = flag.String("root", ".", "repository root")
		work     = flag.String("work", ".bench_build", "scratch directory (relative to -root unless absolute)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want oneshot, whatif, churn or service)", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, work: *work}
	out, err := fn(o)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	return report(*workload, o.trace, out)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable table, the check failures, and the
// result object as the last line of standard output.
func report(workload string, trace bool, out *outcome) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := jsonResult{
		Correct:   len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Printf("%-8s %-38s %14.4f %s\n", workload, d.Name, v, d.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "operation failed:", n)
	}
	for _, w := range out.wrong {
		fmt.Fprintln(os.Stderr, "check failed:", w)
	}
	fmt.Printf("%-8s attempted %d, failed %d, answer checks %s\n", workload, out.attempted, out.failed, map[bool]string{true: "passed", false: "FAILED"}[res.Correct])
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
