// Command steady runs one benchmark workload several times, each with
// another seed, and prints for every metric the median, the quartiles and
// the spread (interquartile distance over median) against the metric's
// bound from BENCHMARK.json. It also prints each run's share of failed
// operations, which must be the same in every run.
//
// Usage, from perfbench/:
//
//	go run ./cmd/steady -workload oneshot -runs 10
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"flowrelbench/internal/stat"
)

// benchmarkFile is the part of BENCHMARK.json steady reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	var (
		root     = flag.String("root", "..", "repository root, where BENCHMARK.json is")
		workload = flag.String("workload", "", "workload to run")
		runs     = flag.Int("runs", 10, "number of runs")
		seed     = flag.Int64("seed", 1, "seed of the first run; run i uses seed+i")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 runs the traced variant")
	)
	flag.Parse()
	if *workload == "" || *runs < 1 {
		return fmt.Errorf("-workload is required and -runs must be positive")
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	var results []result
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		args := append(append([]string(nil), bf.Command[1:]...),
			"--workload", *workload, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace))
		cmd := exec.Command(bf.Command[0], args...)
		cmd.Dir = *root
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		res, err := lastResult(outb)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		fmt.Fprintf(stdout, "run %2d seed %3d: correct=%v attempted=%d failed=%d", i, s, res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedNames(res.Metrics) {
			fmt.Fprintf(stdout, " %s=%.6g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(stdout)
		results = append(results, res)
	}
	summarize(stdout, results, bounds)
	return nil
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lastResult parses the JSON object on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last output line is not a result object: %w", err)
	}
	return r, nil
}

// summarize prints each metric's quartiles and spread, the verdict
// against its bound (a spread must stay within the bound, and below a
// third of it to leave room for a second set of runs), and each run's
// failed share.
func summarize(w io.Writer, results []result, bounds map[string]float64) {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range results {
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := sortedNames(values)
	fmt.Fprintf(w, "%-38s %14s %14s %14s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		xs := values[name]
		q1, med, q3 := stat.Quartiles(append([]float64(nil), xs...))
		spread := stat.Spread(append([]float64(nil), xs...))
		bound, hasBound := bounds[name]
		verdict := "-"
		if hasBound {
			verdict = verdictFor(spread, bound)
		}
		fmt.Fprintf(w, "%-38s %14.4f %14.4f %14.4f %8.4f %6.3f  %s (%s, n=%d)\n", name, q1, med, q3, spread, bound, verdict, units[name], len(xs))
	}
	for i, r := range results {
		fmt.Fprintf(w, "run %d: failed share %d/%d, answer checks passed: %v\n", i, r.Failed, r.Attempted, r.Correct)
	}
}

// verdictFor classifies a spread against its bound.
func verdictFor(spread, bound float64) string {
	switch {
	case spread > bound:
		return "OUTSIDE BOUND"
	case spread > bound/3:
		return "within bound, above a third of it"
	}
	return "steady"
}
