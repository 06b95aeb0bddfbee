package main

import (
	"fmt"
	"time"

	"flowrel"
	"flowrelbench/internal/gen"
	"flowrelbench/internal/ref"
	"flowrelbench/internal/stat"
)

// churnEvents is the length of each overlay's event stream.
const churnEvents = 25

// runChurn drives one plan per overlay through its pre-validated stream
// of single-link events; each operation is Plan.Mutate followed by one
// Eval. The plan cache keeps its default capacity and is emptied between
// rounds, outside the timed operations, so every round does the same
// work. Events the delta compiler answers by falling back to a cold
// compile stay in the stream and show in core.delta_fallbacks.
func runChurn(o opts) (*outcome, error) {
	streams, err := gen.Churn(o.seed, churnEvents)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	churnRefs(out, streams)
	// Only the first stream's graphs are read again (churnProperties);
	// dropping the others keeps the collector's work in the timed phase
	// to the plans the workload itself holds.
	for i := 1; i < len(streams); i++ {
		for k := range streams[i].Steps {
			streams[i].Steps[k].G = nil
		}
	}

	bases := make([]*flowrel.Plan, len(streams))
	setup, err := medianSetup(func() error {
		flowrel.ResetPlanCache()
		for i, s := range streams {
			var err error
			if bases[i], err = flowrel.CompilePlan(s.Base.G, s.Base.Dem, flowrel.Config{}); err != nil {
				return fmt.Errorf("compiling churn base %s: %w", s.Base.Label, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tr churnTrace
	round := func(traced bool) func(w *window) (int64, time.Duration) {
		return func(w *window) (int64, time.Duration) {
			flowrel.ResetPlanCache()
			var busy time.Duration
			var n int64
			for si, s := range streams {
				p := bases[si]
				for k, st := range s.Steps {
					if traced {
						tr.apply(p, st.Mut)
					}
					start := time.Now()
					child, err := p.Mutate(st.Mut)
					mid := time.Now()
					var r float64
					if err == nil {
						r, err = child.Eval(nil)
					}
					end := time.Now()
					d := end.Sub(start)
					busy += d
					n++
					w.lat = append(w.lat, us(d))
					if err != nil {
						out.fail(1, "churn %s event %d (%v): %v", s.Base.Label, k, st.Mut, err)
						break // the rest of this stream builds on the failed step
					}
					if err := ref.SameBits("answer against its cold compile", r, st.Want); err != nil {
						out.wrongf("churn %s event %d (%v): %v", s.Base.Label, k, st.Mut, err)
					}
					if traced {
						tr.deltaUS = append(tr.deltaUS, us(mid.Sub(start)))
						tr.evalUS = append(tr.evalUS, us(end.Sub(mid)))
					}
					p = child
				}
			}
			return n, busy
		}
	}

	// No tracer runs inside this workload's timed calls (Plan.Mutate ignores
	// Config.Tracer), so the traced run is one phase with the per-layer
	// timings taken around the calls, and there is no tracing overhead to
	// report.
	w := runRounds(o.seconds, round(o.trace))
	out.attempted += w.ops
	if !o.trace {
		e2e(out.metrics, setup, w.rate(), w)
	} else {
		m := out.metrics
		m["core.delta_us"] = stat.Median(tr.deltaUS)
		m["core.eval_us"] = stat.Median(tr.evalUS)
		m["graph.mutation_apply_us"] = stat.Median(tr.applyUS)
		m["core.delta_max_flow_calls"] = perOp(statsDelta(w.stats, w.statsEnd, "core.max_flow_calls"), w.ops)
		m["core.delta_reused_checks"] = perOp(statsDelta(w.stats, w.statsEnd, "core.delta_reused_checks"), w.ops)
		m["core.delta_fallbacks"] = perOp(statsDelta(w.stats, w.statsEnd, "core.delta_fallbacks"), w.ops)
		hitRatio(m, w.cache, w.cacheEnd)
		w.runtimeMetrics(m)
	}
	churnProperties(out, streams, bases, o.seed)
	return out, nil
}

// churnRefs checks every event's cold-compile answer against the
// factoring engine, and each base overlay small enough against the
// brute-force enumerator, one stream per CPU at a time. The factoring
// engine does not touch the plan cache.
func churnRefs(out *outcome, streams []gen.Stream) {
	errs := make([][]error, len(streams))
	_ = gen.ForEach(len(streams), func(i int) error {
		errs[i] = streamRefs(streams[i])
		return nil
	})
	for _, es := range errs {
		for _, err := range es {
			out.check(err)
		}
	}
}

// streamRefs returns the failed reference checks of one churn stream.
func streamRefs(s gen.Stream) []error {
	var errs []error
	base, err := flowrel.Compute(s.Base.G, s.Base.Dem, flowrel.Config{Engine: flowrel.EngineFactoring})
	if err != nil {
		return []error{fmt.Errorf("factoring on churn base %s: %w", s.Base.Label, err)}
	}
	if s.Base.G.NumEdges() <= 18 {
		bf, err := ref.BruteForce(gen.Instance(s.Base.G, s.Base.Dem))
		if err == nil {
			err = ref.Close("churn base "+s.Base.Label+" factoring against brute force", base.Reliability, bf, ref.Tol)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	for k, st := range s.Steps {
		rep, err := flowrel.Compute(st.G, s.Base.Dem, flowrel.Config{Engine: flowrel.EngineFactoring})
		if err != nil {
			errs = append(errs, fmt.Errorf("factoring on churn %s event %d: %w", s.Base.Label, k, err))
			continue
		}
		what := fmt.Sprintf("churn %s event %d (%v)", s.Base.Label, k, st.Mut)
		for _, err := range []error{ref.InUnit(what, st.Want), ref.Close(what+" against factoring", st.Want, rep.Reliability, ref.Tol)} {
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

// churnProperties replays the first stream after the timed phases and
// compares every delta successor with a cold CompilePlan of the mutated
// graph at a fresh probability vector, single and batched.
func churnProperties(out *outcome, streams []gen.Stream, bases []*flowrel.Plan, seed int64) {
	rng := gen.Rand(seed, 200)
	s := streams[0]
	p := bases[0]
	for k, st := range s.Steps {
		child, err := p.Mutate(st.Mut)
		if err != nil {
			out.checkf("replaying churn %s event %d: %v", s.Base.Label, k, err)
			return
		}
		flowrel.ResetPlanCache() // the cold compile must not find the successor
		cold, err := flowrel.CompilePlan(st.G, s.Base.Dem, flowrel.Config{})
		if err != nil {
			out.checkf("cold compile of churn %s event %d: %v", s.Base.Label, k, err)
			return
		}
		vec := gen.Vector(rng, child.NumEdges(), 0.01, 0.3)
		rd, errD := child.Eval(vec)
		rc, errC := cold.Eval(vec)
		batch, errB := child.EvalBatch([][]float64{vec})
		if errD != nil || errC != nil || errB != nil {
			out.checkf("churn %s event %d evaluation: %v %v %v", s.Base.Label, k, errD, errC, errB)
			return
		}
		what := fmt.Sprintf("churn %s event %d (%v)", s.Base.Label, k, st.Mut)
		out.check(ref.SameBits(what+" delta successor against cold compile", rd, rc))
		out.check(ref.SameBits(what+" batch against single", batch[0], rd))
		p = child
	}
}

// churnTrace holds the traced phase's per-event layer timings.
type churnTrace struct {
	deltaUS, evalUS, applyUS []float64
}

// apply times Mutation.Apply on the plan's graph apart from Mutate, which
// calls it internally.
func (t *churnTrace) apply(p *flowrel.Plan, m flowrel.Mutation) {
	start := time.Now()
	_, _, _ = m.Apply(p.Graph())
	t.applyUS = append(t.applyUS, us(time.Since(start)))
}
