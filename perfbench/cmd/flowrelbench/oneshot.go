package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"flowrel"
	"flowrelbench/internal/gen"
	"flowrelbench/internal/ref"
)

// bruteBudget bounds the configurations the brute-force enumerator checks
// per oneshot run (2^21: about a second on the reference machine).
const bruteBudget = 1 << 21

// propertyPlans is how many stream instances the post-run property
// checks compile.
const propertyPlans = 48

// runOneshot answers a stream of structurally distinct topologies with
// one default Compute each. The stream is far longer than the plan
// cache, so every solve compiles from scratch.
func runOneshot(o opts) (*outcome, error) {
	pool, err := gen.Oneshot(o.seed)
	if err != nil {
		return nil, err
	}
	factoring, brute, err := oneshotRefs(pool)
	if err != nil {
		return nil, err
	}

	// Set-up: solve the first two instances of every stratum from an
	// empty plan cache, the cost a fresh caller pays before its solves run
	// warm. Taking the same number from every stratum keeps the set-up's
	// mix the same for every seed.
	warm := warmSet(pool, 2)
	setup, err := medianSetup(func() error {
		flowrel.ResetPlanCache()
		for _, c := range warm {
			if _, err := flowrel.Compute(c.G, c.Dem, flowrel.Config{}); err != nil {
				return fmt.Errorf("set-up solve of %s %s: %w", c.Family, c.Label, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flowrel.ResetPlanCache()

	out := &outcome{metrics: map[string]float64{}}
	var tr oneshotTrace
	round := func(traced bool) func(w *window) (int64, time.Duration) {
		return func(w *window) (int64, time.Duration) {
			cfg := flowrel.Config{CollectStats: traced}
			var busy time.Duration
			for i, c := range pool {
				start := time.Now()
				rep, err := flowrel.Compute(c.G, c.Dem, cfg)
				d := time.Since(start)
				busy += d
				w.lat = append(w.lat, us(d))
				if err == nil && rep.Partial {
					err = fmt.Errorf("partial answer: %s", rep.Reason)
				}
				if err != nil {
					out.fail(1, "solve of %s %s: %v", c.Family, c.Label, err)
					continue
				}
				r := rep.Reliability
				errs := [3]error{ref.InUnit("answer", r), ref.Close("answer against factoring", r, factoring[i], ref.Tol)}
				if !math.IsNaN(brute[i]) {
					errs[2] = ref.Close("answer against brute force", r, brute[i], ref.Tol)
				}
				if errs != [3]error{} {
					out.wrongf("oneshot %s %s: %v", c.Family, c.Label, errors.Join(errs[:]...))
				}
				if traced {
					tr.add(rep)
				}
			}
			return int64(len(pool)), busy
		}
	}

	// The traced run measures the tracing overhead too: half the time
	// untraced, half with CollectStats (and so the Config.Tracer phases)
	// switched on inside the timed solves.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	w := runRounds(seconds, round(false))
	out.attempted += w.ops
	if !o.trace {
		e2e(out.metrics, setup, w.rate(), w)
	} else {
		tw := runRounds(seconds, round(true))
		out.attempted += tw.ops
		tr.metrics(out.metrics)
		hitRatio(out.metrics, tw.cache, tw.cacheEnd)
		tw.runtimeMetrics(out.metrics)
		out.metrics["trace.overhead_pct"] = overhead(w.rate(), tw.rate())
	}
	oneshotProperties(out, pool)
	return out, nil
}

// warmSet returns the first n instances of every stratum of the stream.
func warmSet(pool []gen.Case, n int) []gen.Case {
	taken := map[string]int{}
	var out []gen.Case
	for _, c := range pool {
		if taken[c.Label] < n {
			taken[c.Label]++
			out = append(out, c)
		}
	}
	return out
}

// oneshotRefs computes the references for every stream instance outside
// the timed phase: the factoring engine's answer (which never touches the
// plan cache) and, for the smallest instances up to bruteBudget
// configurations in all, the brute-force enumerator's. brute is NaN where
// no brute-force reference was made.
func oneshotRefs(pool []gen.Case) (factoring, brute []float64, err error) {
	factoring = make([]float64, len(pool))
	brute = make([]float64, len(pool))
	order := make([]int, len(pool))
	for i, c := range pool {
		rep, err := flowrel.Compute(c.G, c.Dem, flowrel.Config{Engine: flowrel.EngineFactoring})
		if err != nil {
			return nil, nil, fmt.Errorf("factoring reference for %s %s: %w", c.Family, c.Label, err)
		}
		factoring[i] = rep.Reliability
		brute[i] = math.NaN()
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pool[order[a]].G.NumEdges() < pool[order[b]].G.NumEdges() })
	spent := 0
	for _, i := range order {
		m := pool[i].G.NumEdges()
		if m > ref.MaxLinks || spent+(1<<m) > bruteBudget {
			break
		}
		spent += 1 << m
		if brute[i], err = ref.BruteForce(gen.Instance(pool[i].G, pool[i].Dem)); err != nil {
			return nil, nil, err
		}
	}
	return factoring, brute, nil
}

// oneshotProperties checks, after the timed phases, properties of the
// compiled plans of the first stream instances: R in [0, 1], raising one
// link's failure probability never raises R, and a batch evaluation is
// bit-identical to single evaluations. Instances the core engine declines
// (answered by another ladder rung) have no plan and are skipped.
func oneshotProperties(out *outcome, pool []gen.Case) {
	for i, c := range pool[:propertyPlans] {
		p, err := flowrel.CompilePlan(c.G, c.Dem, flowrel.Config{})
		if err != nil {
			continue
		}
		base := p.BasePFail()
		raised := p.BasePFail()
		j := i % len(raised)
		raised[j] = math.Min(1, raised[j]+0.25)
		what := fmt.Sprintf("oneshot plan %s %s", c.Family, c.Label)
		r0, err0 := p.Eval(base)
		r1, err1 := p.Eval(raised)
		batch, errB := p.EvalBatch([][]float64{base, raised})
		if err0 != nil || err1 != nil || errB != nil {
			out.checkf("%s: evaluation failed: %v %v %v", what, err0, err1, errB)
			continue
		}
		out.check(ref.InUnit(what, r0))
		out.check(ref.InUnit(what, r1))
		out.check(ref.Monotone(fmt.Sprintf("%s link %d", what, j), r0, r1))
		out.check(ref.SameBits(what+" batch[0]", batch[0], r0))
		out.check(ref.SameBits(what+" batch[1]", batch[1], r1))
	}
}

// oneshotTrace accumulates the per-solve SolveStats of a traced phase.
type oneshotTrace struct {
	solves, coreSolves                    int64
	cutUS, sideUS, otherUS                float64
	configs, flows, paths, closure, capac float64
	terms, segments                       float64
}

func (t *oneshotTrace) add(rep flowrel.Report) {
	s := rep.Stats
	if s == nil {
		return
	}
	t.solves++
	t.configs += float64(s.Configs)
	t.flows += float64(s.MaxFlowCalls)
	t.paths += float64(s.AugmentingPaths)
	t.closure += float64(s.PrunedClosure)
	t.capac += float64(s.PrunedCapacity)
	t.terms += float64(s.KernelTerms)
	t.segments += float64(s.KernelSegments)
	if rep.Rung != "core" {
		return
	}
	t.coreSolves++
	var cut, side float64
	for _, ph := range s.Phases {
		if ph.Engine != "core" {
			continue
		}
		switch ph.Phase {
		case "cut-search":
			cut += float64(ph.DurationNanos) / 1e3
		case "side/0", "side/1":
			side += float64(ph.DurationNanos) / 1e3
		}
	}
	t.cutUS += cut
	t.sideUS += side
	for _, r := range s.Rungs {
		if r.Rung == "core" && r.Outcome == "answered" {
			t.otherUS += float64(r.DurationNanos)/1e3 - cut - side
		}
	}
}

// metrics reports per-solve means; the phase times average over the
// solves the core rung answered.
func (t *oneshotTrace) metrics(m map[string]float64) {
	m["mincut.find_us"] = perOp(t.cutUS, t.coreSolves)
	m["core.side_build_us"] = perOp(t.sideUS, t.coreSolves)
	m["core.compile_other_us"] = perOp(t.otherUS, t.coreSolves)
	m["core.side_configs"] = perOp(t.configs, t.solves)
	m["core.max_flow_calls"] = perOp(t.flows, t.solves)
	if t.configs > 0 {
		m["core.max_flow_per_config"] = t.flows / t.configs
	}
	m["core.pruned_closure"] = perOp(t.closure, t.solves)
	m["core.pruned_capacity"] = perOp(t.capac, t.solves)
	m["core.kernel_terms"] = perOp(t.terms, t.solves)
	m["core.kernel_segments"] = perOp(t.segments, t.solves)
	m["maxflow.augmenting_paths"] = perOp(t.paths, t.solves)
	m["engines.rung_core_share"] = perOp(float64(t.coreSolves), t.solves)
}

// hitRatio reports the plan cache's hit ratio between two snapshots.
func hitRatio(m map[string]float64, before, after flowrel.PlanCacheCounters) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	if hits+misses > 0 {
		m["plancache.hit_ratio"] = hits / (hits + misses)
	}
}
