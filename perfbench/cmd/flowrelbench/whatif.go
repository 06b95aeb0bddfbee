package main

import (
	"fmt"
	"math"
	"time"

	"flowrel"
	"flowrelbench/internal/gen"
	"flowrelbench/internal/ref"
	"flowrelbench/internal/stat"
)

const (
	// whatifBatch is the scenario count of one EvalBatchInto call.
	whatifBatch = 256
	// whatifVectors is the number of distinct scenarios per plan; batches
	// cycle through them.
	whatifVectors = 1024
	// whatifQueries is the number of single what-if queries per plan and
	// round. Every plan gets the same count, so the median query falls in
	// the middle band's latencies.
	whatifQueries = 20
	// whatifShareNS is the batch time one plan should take per round under
	// the cost model of whatifBatches.
	whatifShareNS = 20e6
)

// whatifBatches is the number of batches one plan runs per round. The
// cost model (150 ns per scenario plus 0.8 ns per lattice point, fitted on
// the reference machine) only weights the plans so each takes a similar
// share of the batch time; it depends on the side sizes alone, so every
// run does the same work.
func whatifBatches(lattice int) int {
	perScenario := 150 + 0.8*float64(lattice)
	return max(1, int(math.Round(whatifShareNS/(whatifBatch*perScenario))))
}

// whatifPlan is one compiled plan and its pre-made inputs and references.
type whatifPlan struct {
	c       gen.Case
	plan    *flowrel.Plan
	lattice int // 2^a + 2^b side configurations
	batches int

	vectors  [][]float64
	want     []float64 // single Plan.Eval of each vector
	queries  []*flowrel.Graph
	qwant    []float64 // single Plan.Eval at each query graph's probabilities
	qvectors [][]float64
}

// runWhatif evaluates compiled plans: batched sweeps through
// EvalBatchInto and single what-if queries through Compute on graphs that
// share a plan's structure but carry fresh probabilities. No max-flow runs
// in the timed phase.
func runWhatif(o opts) (*outcome, error) {
	cases, err := gen.Whatif(o.seed)
	if err != nil {
		return nil, err
	}
	plans := make([]*whatifPlan, len(cases))
	for i, c := range cases {
		s := gen.WhatifSides[i/gen.WhatifPerBand]
		lat := 2 << s
		plans[i] = &whatifPlan{c: c, lattice: lat, batches: whatifBatches(lat)}
	}

	// Set-up: compile every plan from an empty cache. The last repetition
	// leaves the plans in the cache the queries hit.
	setup, err := medianSetup(func() error {
		flowrel.ResetPlanCache()
		for _, p := range plans {
			var err error
			if p.plan, err = flowrel.CompilePlan(p.c.G, p.c.Dem, flowrel.Config{}); err != nil {
				return fmt.Errorf("compiling %s: %w", p.c.Label, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	if err := whatifInputs(o.seed, plans); err != nil {
		return nil, err
	}
	whatifRefs(out, plans)

	var tr whatifTrace
	round := func(traced bool) func(w *window) (int64, time.Duration) {
		dst := make([]float64, whatifBatch)
		return func(w *window) (int64, time.Duration) {
			var busy time.Duration
			var n int64
			for _, p := range plans {
				for b := 0; b < p.batches; b++ {
					off := (b * whatifBatch) % whatifVectors
					sc := p.vectors[off : off+whatifBatch]
					start := time.Now()
					err := p.plan.EvalBatchInto(dst, sc, flowrel.EvalBatchOptions{})
					d := time.Since(start)
					busy += d
					n += whatifBatch
					if err != nil {
						out.fail(whatifBatch, "EvalBatchInto on %s: %v", p.c.Label, err)
						continue
					}
					for i, r := range dst {
						if err := ref.SameBits("batch answer against single Eval", r, p.want[off+i]); err != nil {
							out.wrongf("scenario %d on %s: %v", off+i, p.c.Label, err)
						}
					}
					if traced {
						tr.batchNS += float64(d.Nanoseconds())
						tr.scenarios += whatifBatch
						tr.bytes += whatifBatch * 12 * float64(p.lattice)
					}
				}
			}
			for q := 0; q < whatifQueries; q++ {
				for _, p := range plans {
					g := p.queries[q]
					start := time.Now()
					rep, err := flowrel.Compute(g, p.c.Dem, flowrel.Config{})
					d := time.Since(start)
					w.lat = append(w.lat, us(d))
					if err == nil && rep.Partial {
						err = fmt.Errorf("partial answer: %s", rep.Reason)
					}
					if err != nil {
						out.fail(1, "what-if query %d on %s: %v", q, p.c.Label, err)
						continue
					}
					if err := ref.SameBits("query answer against Plan.Eval", rep.Reliability, p.qwant[q]); err != nil {
						out.wrongf("what-if query %d on %s: %v", q, p.c.Label, err)
					}
					if traced {
						tr.query(p, q, g)
					}
				}
			}
			w.ops += int64(whatifQueries * len(plans))
			return n, busy
		}
	}

	// No tracer runs inside this workload's timed calls, so the traced run
	// is one phase with the per-layer timings taken beside them, and there
	// is no tracing overhead to report.
	w := runRounds(o.seconds, round(o.trace))
	out.attempted += w.ops
	if !o.trace {
		e2e(out.metrics, setup, w.rate(), w)
	} else {
		tr.metrics(out.metrics)
		out.metrics["core.max_flow_calls"] = perOp(statsDelta(w.stats, w.statsEnd, "core.max_flow_calls"), w.ops)
		out.metrics["core.eval_blocks"] = perOp(statsDelta(w.stats, w.statsEnd, "core.eval_blocks"), int64(tr.scenarios/whatifBatch))
		hitRatio(out.metrics, w.cache, w.cacheEnd)
		w.runtimeMetrics(out.metrics)
	}
	return out, nil
}

// whatifInputs draws each plan's scenario vectors and query graphs and
// records their single-Eval answers, the values the batches and queries
// must reproduce bit for bit.
func whatifInputs(seed int64, plans []*whatifPlan) error {
	for i, p := range plans {
		rng := gen.Rand(seed, int64(100+i))
		m := p.plan.NumEdges()
		for v := 0; v < whatifVectors; v++ {
			vec := gen.Vector(rng, m, 0.01, 0.3)
			r, err := p.plan.Eval(vec)
			if err != nil {
				return err
			}
			p.vectors = append(p.vectors, vec)
			p.want = append(p.want, r)
		}
		for q := 0; q < whatifQueries; q++ {
			g, err := gen.Reprob(p.c.G, rng, 0.01, 0.3)
			if err != nil {
				return err
			}
			vec := make([]float64, g.NumEdges())
			for j, e := range g.Edges() {
				vec[j] = e.PFail
			}
			r, err := p.plan.Eval(vec)
			if err != nil {
				return err
			}
			p.queries = append(p.queries, g)
			p.qvectors = append(p.qvectors, vec)
			p.qwant = append(p.qwant, r)
		}
	}
	return nil
}

// whatifRefs checks the plans against references made apart from the
// evaluate kernels: the brute-force enumerator on the smallest band's
// plans, the factoring engine on the three smallest bands', R in [0, 1] and
// monotonicity in every link on every plan. Neither reference touches the
// plan cache.
func whatifRefs(out *outcome, plans []*whatifPlan) {
	for i, p := range plans {
		what := "whatif " + p.c.Label
		r0 := p.qwant[0]
		out.check(ref.InUnit(what, r0))
		if i < gen.WhatifPerBand {
			in := gen.Instance(p.queries[0], p.c.Dem)
			if bf, err := ref.BruteForce(in); err != nil {
				out.checkf("%s brute force: %v", what, err)
			} else {
				out.check(ref.Close(what+" against brute force", r0, bf, ref.Tol))
			}
		}
		if i < 3*gen.WhatifPerBand {
			rep, err := flowrel.Compute(p.queries[0], p.c.Dem, flowrel.Config{Engine: flowrel.EngineFactoring})
			if err != nil {
				out.checkf("%s factoring: %v", what, err)
			} else {
				out.check(ref.Close(what+" against factoring", r0, rep.Reliability, ref.Tol))
			}
		}
		for j := 0; j < len(p.qvectors[0]); j++ {
			v := append([]float64(nil), p.qvectors[0]...)
			v[j] = math.Min(1, v[j]+0.25)
			r1, err := p.plan.Eval(v)
			if err != nil {
				out.checkf("%s raised link %d: %v", what, j, err)
				continue
			}
			out.check(ref.Monotone(fmt.Sprintf("%s link %d", what, j), r0, r1))
		}
	}
}

// whatifTrace accumulates the traced phase's layer timings.
type whatifTrace struct {
	batchNS, scenarios, bytes float64
	evalUS, keyUS             []float64
	terms, segments           float64
	statsQueries              int64
}

// query times the layers of one what-if query apart: the structural hash
// the plan cache keys on, and a direct Plan.Eval at the query's
// probabilities. One query per plan and round also reports the kernel
// size through SolveStats.
func (t *whatifTrace) query(p *whatifPlan, q int, g *flowrel.Graph) {
	start := time.Now()
	_ = flowrel.StructuralHash(g, p.c.Dem, flowrel.Config{})
	t.keyUS = append(t.keyUS, us(time.Since(start)))
	start = time.Now()
	_, _ = p.plan.Eval(p.qvectors[q])
	t.evalUS = append(t.evalUS, us(time.Since(start)))
	if q == 0 {
		if rep, err := flowrel.Compute(g, p.c.Dem, flowrel.Config{CollectStats: true}); err == nil && rep.Stats != nil {
			t.terms += float64(rep.Stats.KernelTerms)
			t.segments += float64(rep.Stats.KernelSegments)
			t.statsQueries++
		}
	}
}

func (t *whatifTrace) metrics(m map[string]float64) {
	m["core.eval_us"] = stat.Median(t.evalUS)
	m["plancache.key_us"] = stat.Median(t.keyUS)
	if t.scenarios > 0 {
		m["core.evalbatch_ns_per_scenario"] = t.batchNS / t.scenarios
		m["core.eval_bytes_per_scenario"] = t.bytes / t.scenarios
	}
	m["core.kernel_terms"] = perOp(t.terms, t.statsQueries)
	m["core.kernel_segments"] = perOp(t.segments, t.statsQueries)
}
