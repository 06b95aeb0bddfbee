// Package gen builds the benchmark's inputs from a workload seed. It uses
// only flowrel's public constructors (ClusteredOverlay, ChainOverlay,
// MeshOverlay, Figure4Overlay, NewBuilder and Mutation).
//
// Inputs are chosen by structural rules the benchmark checks itself, never
// by how the code under test treats them: generator parameters, link
// counts inside the generator's own clusters and blocks, the planted
// bottleneck links the generator reports, the benchmark's own structural
// key (Key) and the reference max-flow (ref.Feasible). A change to the cut
// search, the delta compiler or the plan-cache key therefore runs on the
// same inputs as its parent.
//
// Every instance is then checked to be answered exactly by the default
// Compute within flowrel's default limits. A failure there is a fault of
// the program and stops generation; it is never a reason to draw again.
// Those checks compile through the process-wide plan cache, so every
// generator empties the cache before it returns.
package gen

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"flowrel"
	"flowrelbench/internal/ref"
)

// Case is one generated instance.
type Case struct {
	Family string // clustered, chain, mesh or figure4
	Label  string // generator parameters, for messages
	G      *flowrel.Graph
	Dem    flowrel.Demand
}

// Instance converts g and dem into the reference checker's plain form.
func Instance(g *flowrel.Graph, dem flowrel.Demand) ref.Instance {
	in := ref.Instance{Nodes: g.NumNodes(), S: int(dem.S), T: int(dem.T), D: dem.D}
	for _, e := range g.Edges() {
		in.Links = append(in.Links, ref.Link{U: int(e.U), V: int(e.V), Cap: e.Cap, P: e.PFail})
	}
	return in
}

// Key is the benchmark's own structural key of an instance: the node
// count, the demand and every link's end points and capacity, in link
// order. Failure probabilities are left out, as they are from a plan.
// Instances with distinct keys need distinct plans.
func Key(g *flowrel.Graph, dem flowrel.Demand) string {
	b := make([]byte, 0, 16+8*g.NumEdges())
	for _, x := range []int{g.NumNodes(), int(dem.S), int(dem.T), dem.D} {
		b = strconv.AppendInt(append(b, ' '), int64(x), 10)
	}
	for _, e := range g.Edges() {
		b = strconv.AppendInt(append(b, ';'), int64(e.U), 10)
		b = strconv.AppendInt(append(b, '>'), int64(e.V), 10)
		b = strconv.AppendInt(append(b, ':'), int64(e.Cap), 10)
	}
	return string(b)
}

// Rand returns the generator for one input stream of a workload seed;
// distinct streams of one seed are independent.
func Rand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// maxTries bounds the redraws for one input slot; generation fails
// rather than loop forever on parameters that never validate.
const maxTries = 200

// pfail draws a uniform link failure probability for one overlay.
func pfail(rng *rand.Rand) float64 { return 0.02 + 0.18*rng.Float64() }

// lastPeer is the demand the overlay generators are built around: the
// full stream delivered to the last subscriber.
func lastPeer(o *flowrel.Overlay) flowrel.Demand { return o.Demand(o.Peers[len(o.Peers)-1]) }

// feasible reports whether the demand can be met with every link alive,
// by the reference max-flow.
func feasible(g *flowrel.Graph, dem flowrel.Demand) bool { return ref.Feasible(Instance(g, dem)) }

// exact returns an error unless the default Compute answers c exactly.
func exact(c Case) error {
	rep, err := flowrel.Compute(c.G, c.Dem, flowrel.Config{})
	if err == nil && rep.Partial {
		err = fmt.Errorf("partial answer: %s", rep.Reason)
	}
	if err != nil {
		return fmt.Errorf("gen: default Compute does not answer %s %s exactly: %w", c.Family, c.Label, err)
	}
	return nil
}

// ClusterLinks returns the number of links inside each cluster of a
// clustered overlay with side nodes per cluster: nodes [0, side) and
// [side, 2·side). The remaining links are the planted bottleneck.
func ClusterLinks(g *flowrel.Graph, side int) [2]int {
	var n [2]int
	for _, e := range g.Edges() {
		if cu := int(e.U) / side; cu == int(e.V)/side {
			n[cu]++
		}
	}
	return n
}

// plantedFull reports whether every planted bottleneck link of o can
// carry the whole demand d, which makes the assignment set of a k=2 cut
// its largest, d+1 assignments.
func plantedFull(o *flowrel.Overlay, d int) bool {
	for _, id := range o.Bottleneck {
		if o.G.Edge(id).Cap < d {
			return false
		}
	}
	return len(o.Bottleneck) > 0
}

// clustered draws a clustered overlay with side nodes per cluster and
// sideEdges link draws per cluster, and keeps it only when both clusters
// have exactly `links` links (no draw was dropped as a self-loop and no
// reachability link was patched in), every planted bottleneck link
// carries the whole demand when full is set, and the demand is feasible.
func clustered(rng *rand.Rand, side, sideEdges, links, k, d int, p float64, full bool) (*flowrel.Overlay, bool) {
	o, err := flowrel.ClusteredOverlay(side, sideEdges, k, d, 2, p, rng.Int63())
	if err != nil || ClusterLinks(o.G, side) != [2]int{links, links} || (full && !plantedFull(o, d)) {
		return nil, false
	}
	return o, feasible(o.G, lastPeer(o))
}

// stratum is one cell of the oneshot grid: a family at fixed parameters,
// drawn reps times with fresh wiring. draw returns false for a draw whose
// structure leaves the stratum, so that every seed's stream has the same
// link counts and costs about the same to solve.
type stratum struct {
	family string
	label  string
	reps   int
	draw   func(rng *rand.Rand) (*flowrel.Graph, flowrel.Demand, bool)
}

// oneshotStrata is the oneshot grid. The parameters are fixed and only the
// wiring and failure probabilities depend on the seed, so every seed
// yields the same mix. Replica counts give each of the three generated
// families a similar share of the solve time on the reference machine
// (README.md, "Inputs").
func oneshotStrata() []stratum {
	var st []stratum
	for sn := 5; sn <= 8; sn++ {
		for k := 2; k <= 3; k++ {
			for d := 2; d <= 3; d++ {
				sn, k, d := sn, k, d
				st = append(st, stratum{"clustered", fmt.Sprintf("side=%d links=%d k=%d d=%d", sn, sn+3, k, d), 16,
					func(rng *rand.Rand) (*flowrel.Graph, flowrel.Demand, bool) {
						o, ok := clustered(rng, sn, sn+3, sn+3, k, d, pfail(rng), false)
						if !ok {
							return nil, flowrel.Demand{}, false
						}
						return o.G, lastPeer(o), true
					}})
			}
		}
	}
	for _, c := range []struct{ blocks, nodes, reps int }{{2, 4, 120}, {2, 5, 120}, {3, 4, 40}} {
		c := c
		st = append(st, stratum{"chain", fmt.Sprintf("blocks=%d nodes=%d", c.blocks, c.nodes), c.reps,
			func(rng *rand.Rand) (*flowrel.Graph, flowrel.Demand, bool) {
				o, _, err := flowrel.ChainOverlay(c.blocks, c.nodes, chainExtra, 2, 2, 2, pfail(rng), rng.Int63())
				if err != nil || !fullBlocks(o.G, c.blocks, c.nodes) {
					return nil, flowrel.Demand{}, false
				}
				dem := lastPeer(o)
				return o.G, dem, feasible(o.G, dem)
			}})
	}
	for peers := 5; peers <= 8; peers++ {
		peers := peers
		reps := 120
		if peers == 8 {
			reps = 80
		}
		st = append(st, stratum{"mesh", fmt.Sprintf("peers=%d indeg=2", peers), reps,
			func(rng *rand.Rand) (*flowrel.Graph, flowrel.Demand, bool) {
				o, err := flowrel.MeshOverlay(peers, 2, 2, 2, pfail(rng), rng.Int63())
				if err != nil {
					return nil, flowrel.Demand{}, false
				}
				dem := lastPeer(o)
				return o.G, dem, feasible(o.G, dem)
			}})
	}
	return st
}

// chainExtra is the number of extra links drawn inside each chain block.
const chainExtra = 2

// fullBlocks reports whether every block of a chain overlay (nodes
// [b·nodes, (b+1)·nodes)) has its ring plus all chainExtra extra links,
// none dropped as a self-loop.
func fullBlocks(g *flowrel.Graph, blocks, nodes int) bool {
	n := make([]int, blocks)
	for _, e := range g.Edges() {
		if bu := int(e.U) / nodes; bu == int(e.V)/nodes {
			n[bu]++
		}
	}
	for _, c := range n {
		if c != nodes+chainExtra {
			return false
		}
	}
	return true
}

// Oneshot returns the oneshot stream: the strata grid plus the paper's
// Figure 4, every instance structurally distinct (distinct Key, so
// distinct plans), in a seeded random order.
func Oneshot(seed int64) ([]Case, error) {
	defer flowrel.ResetPlanCache()
	rng := Rand(seed, 1)
	seen := map[string]bool{}
	var out []Case
	f4 := flowrel.Figure4Overlay()
	out = append(out, Case{Family: "figure4", Label: "paper Fig. 4", G: f4.G, Dem: lastPeer(f4)})
	seen[Key(f4.G, lastPeer(f4))] = true
	for _, s := range oneshotStrata() {
		for r := 0; r < s.reps; r++ {
			ok := false
			for try := 0; try < 20*maxTries && !ok; try++ {
				g, dem, fits := s.draw(rng)
				if !fits || seen[Key(g, dem)] {
					continue
				}
				seen[Key(g, dem)] = true
				out = append(out, Case{Family: s.family, Label: s.label, G: g, Dem: dem})
				ok = true
			}
			if !ok {
				return nil, fmt.Errorf("gen: no new %s %s instance in %d draws", s.family, s.label, 20*maxTries)
			}
		}
	}
	for _, c := range out {
		if err := exact(c); err != nil {
			return nil, err
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// WhatifSides are the links per cluster of the whatif plans' overlays,
// the sides of their planted bottleneck. The eight-lane evaluate block
// touches about 68·2^(s+1) bytes for sides of s links, so the plans span
// L1d (48 KiB per core) to well beyond L2 (2 MiB per core) on the
// reference machine.
var WhatifSides = []int{6, 10, 13, 15, 17}

// WhatifPerBand is the number of whatif plans per WhatifSides entry, so
// that no single plan's structure sets a band's cost.
const WhatifPerBand = 3

// Whatif returns WhatifPerBand clustered overlays per WhatifSides entry
// whose clusters have exactly that many links and whose two planted
// bottleneck links each carry the whole demand, band by band.
func Whatif(seed int64) ([]Case, error) {
	defer flowrel.ResetPlanCache()
	rng := Rand(seed, 2)
	var out []Case
	for i := 0; i < len(WhatifSides)*WhatifPerBand; i++ {
		links := WhatifSides[i/WhatifPerBand]
		found := false
		for try := 0; try < 50*maxTries && !found; try++ {
			o, ok := clustered(rng, links*2/3, links, links, 2, 2, 0.05, true)
			if !ok {
				continue
			}
			c := Case{Family: "clustered", Label: fmt.Sprintf("sides=%dx%d", links, links), G: o.G, Dem: lastPeer(o)}
			if err := exact(c); err != nil {
				return nil, err
			}
			out = append(out, c)
			found = true
		}
		if !found {
			return nil, fmt.Errorf("gen: no clustered overlay with %d links per cluster", links)
		}
	}
	return out, nil
}

// Reprob returns a graph with g's structure (the same nodes, links and
// capacities, so the same plan-cache key) and fresh failure probabilities
// drawn uniformly from [lo, hi).
func Reprob(g *flowrel.Graph, rng *rand.Rand, lo, hi float64) (*flowrel.Graph, error) {
	b := flowrel.NewBuilder()
	b.AddNodes(g.NumNodes())
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, lo+(hi-lo)*rng.Float64())
	}
	return b.Build()
}

// Vector draws a failure-probability vector for n links from [lo, hi).
func Vector(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*rng.Float64()
	}
	return v
}

// Step is one churn event: the mutation, the graph it produces, and the
// reliability a cold compile of that graph evaluates to at its own
// failure probabilities.
type Step struct {
	Mut  flowrel.Mutation
	G    *flowrel.Graph
	Want float64
}

// Stream is one overlay and its churn events, in order.
type Stream struct {
	Base  Case
	Steps []Step
}

// ChurnSides are the links per cluster of the churn overlays, A3-class
// clustered instances with k=2, d=2. ChurnPerSide overlays of each size,
// so that no single overlay's structure sets the run's cost.
var ChurnSides = []int{7, 9, 11, 12}

// ChurnPerSide is the number of churn overlays per cluster size.
const ChurnPerSide = 128

// churnCorpus is the seed the churn overlays' structure is drawn from:
// their wiring, which links change and where links join. About one churn
// event in 140 makes the delta compiler fall back to a cold compile,
// which costs as much as some thirty other events. Across structure
// seeds that share moved between 0.7% and 0.9% even over 512 overlays,
// which moved the p99 by 40% and the throughput by 20%; with the
// structure fixed it is the same in every run, and a change to the
// program that alters it shows as a change.
const churnCorpus = 1

// Churn returns one stream of n events per churn overlay, in an order
// drawn from the seed; see churnSteps. The structure comes from
// churnCorpus, the failure probabilities (of the overlay's links and of
// every joining link) from the seed. Overlay i draws from stream 1000+i
// of each, so the overlays are generated in parallel and still depend on
// the seed alone.
func Churn(seed int64, n int) ([]Stream, error) {
	defer flowrel.ResetPlanCache()
	out := make([]Stream, len(ChurnSides)*ChurnPerSide)
	err := ForEach(len(out), func(i int) error {
		var err error
		out[i], err = sizedStream(Rand(churnCorpus, 1000+int64(i)), Rand(seed, 1000+int64(i)), ChurnSides[i/ChurnPerSide], n)
		return err
	})
	if err != nil {
		return nil, err
	}
	Rand(seed, 3).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// ForEach calls fn(0) … fn(n−1) on one worker per CPU and returns the
// error of the lowest index that failed, if any. fn must be safe to call
// concurrently for distinct indices.
func ForEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				errs[k] = fn(k)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sizedStream draws a clustered overlay with exactly `links` links per
// cluster and both planted bottleneck links carrying the whole demand,
// and builds its event stream. shape draws the structure and prob the
// failure probabilities; they may be the same source.
func sizedStream(shape, prob *rand.Rand, links, n int) (Stream, error) {
	for try := 0; try < 50*maxTries; try++ {
		side := max(3, links-5+shape.Intn(3))
		o, ok := clustered(shape, side, links, links, 2, 2, pfail(prob), true)
		if !ok {
			continue
		}
		base := Case{Family: "clustered", Label: fmt.Sprintf("sides=%dx%d", links, links), G: o.G, Dem: lastPeer(o)}
		if err := exact(base); err != nil {
			return Stream{}, err
		}
		steps, err := churnSteps(shape, prob, base, side, n)
		if err != nil {
			return Stream{}, err
		}
		return Stream{Base: base, Steps: steps}, nil
	}
	return Stream{}, fmt.Errorf("gen: no clustered overlay with %d links per cluster", links)
}

// ServiceSides are the links per cluster of the service workload's
// working set, two overlays per size.
var ServiceSides = []int{7, 7, 9, 9, 11, 11, 12, 12}

// ServiceUnseen is the number of topologies the service workload submits
// for the first time during its timed phase.
const ServiceUnseen = 256

// Service returns the service workload's inputs: the working set (one
// overlay per ServiceSides entry, each with a stream of n churn events for
// chained mutations) and ServiceUnseen further clustered overlays with 7
// links per cluster and full bottleneck links, structurally distinct from
// each other and from every graph of the working set's streams.
func Service(seed int64, n int) ([]Stream, []Case, error) {
	defer flowrel.ResetPlanCache()
	rng := Rand(seed, 4)
	var work []Stream
	seen := map[string]bool{}
	for _, links := range ServiceSides {
		s, err := sizedStream(rng, rng, links, n)
		if err != nil {
			return nil, nil, err
		}
		work = append(work, s)
		seen[Key(s.Base.G, s.Base.Dem)] = true
		for _, st := range s.Steps {
			seen[Key(st.G, s.Base.Dem)] = true
		}
	}
	var unseen []Case
	for tries := 0; len(unseen) < ServiceUnseen; tries++ {
		if tries > 100*ServiceUnseen+maxTries {
			return nil, nil, fmt.Errorf("gen: only %d of %d unseen service topologies validate", len(unseen), ServiceUnseen)
		}
		side := 3 + rng.Intn(2)
		o, ok := clustered(rng, side, 7, 7, 2, 2, pfail(rng), true)
		if !ok {
			continue
		}
		c := Case{Family: "clustered", Label: "sides=7x7", G: o.G, Dem: lastPeer(o)}
		k := Key(c.G, c.Dem)
		if seen[k] {
			continue
		}
		seen[k] = true
		if err := exact(c); err != nil {
			return nil, nil, err
		}
		unseen = append(unseen, c)
	}
	return work, unseen, nil
}

// churnPattern is the kind of event k of a stream: churnPattern[k%10].
// The link leaving at position 7 is one that joined at position 3 (or
// earlier), so a remove always has a joined link to take.
var churnPattern = [10]flowrel.MutationKind{
	flowrel.MutateCapacity, flowrel.MutateCapacity, flowrel.MutateCapacity, flowrel.MutateAdd, flowrel.MutateCapacity,
	flowrel.MutateCapacity, flowrel.MutateCapacity, flowrel.MutateRemove, flowrel.MutateCapacity, flowrel.MutateCapacity,
}

// churnSteps draws n events against base, a clustered overlay with side
// nodes per cluster, following churnPattern: capacity flaps of links
// inside a cluster, off the planted bottleneck (8 in 10), a link joining
// inside a cluster (1 in 10) and a previously joined link leaving (1 in
// 10). An event is kept when the demand stays feasible (reference
// max-flow) and the graph it produces differs from the base and every
// earlier graph of the stream (Key), so that no event of a stream can be
// answered from the plan cache. A position whose leave keeps failing
// these rules takes a capacity flap instead, so a stream never stalls.
// Each kept event's answer is a cold compile of the mutated graph: the
// generators never call Plan.Mutate, so every plan the process-wide cache
// could hand back is itself a cold compile of the same structure.
// Whether the delta compiler later walks or falls back to a cold compile
// plays no part in the choice.
func churnSteps(shape, prob *rand.Rand, base Case, side, n int) ([]Step, error) {
	g, dem := base.G, base.Dem
	seen := map[string]bool{Key(g, dem): true}
	var steps []Step
	var added []flowrel.EdgeID
	atPos := 0 // draws at the current stream position
	for tries := 0; len(steps) < n; tries++ {
		if tries > 20*n+maxTries {
			return nil, fmt.Errorf("gen: churn stream on %s stalled at %d of %d events", base.Label, len(steps), n)
		}
		kind := churnPattern[len(steps)%len(churnPattern)]
		if atPos++; atPos > maxTries/10 {
			kind = flowrel.MutateCapacity
		}
		mut, ok := proposeMutation(shape, prob, g, side, kind, added)
		if !ok {
			continue
		}
		g2, remap, err := mut.Apply(g)
		if err != nil {
			return nil, fmt.Errorf("gen: applying %v to %s: %w", mut, base.Label, err)
		}
		k := Key(g2, dem)
		if seen[k] || !feasible(g2, dem) {
			continue
		}
		seen[k] = true
		cold, err := flowrel.CompilePlan(g2, dem, flowrel.Config{})
		var want float64
		if err == nil {
			want, err = cold.Eval(nil)
		}
		if err != nil {
			return nil, fmt.Errorf("gen: cold compile of %s after %v: %w", base.Label, mut, err)
		}
		next := added[:0]
		for _, id := range added {
			if nid := remap[id]; nid >= 0 {
				next = append(next, nid)
			}
		}
		added = next
		if mut.Kind == flowrel.MutateAdd {
			added = append(added, flowrel.EdgeID(g2.NumEdges()-1))
		}
		steps = append(steps, Step{Mut: mut, G: g2, Want: want})
		g = g2
		atPos = 0
	}
	return steps, nil
}

// proposeMutation draws one candidate event of the given kind against g,
// a clustered overlay whose clusters are nodes [0, side) and
// [side, 2·side). A capacity event changes the capacity of a link inside
// a cluster, so it is never a no-op and never touches the planted
// bottleneck; a joining link stays inside one cluster, so churn never
// plants a new bottleneck link. shape draws the event, prob the failure
// probability of a joining link.
func proposeMutation(shape, prob *rand.Rand, g *flowrel.Graph, side int, kind flowrel.MutationKind, added []flowrel.EdgeID) (flowrel.Mutation, bool) {
	switch kind {
	case flowrel.MutateCapacity:
		id := flowrel.EdgeID(shape.Intn(g.NumEdges()))
		e := g.Edge(id)
		if int(e.U)/side != int(e.V)/side {
			return flowrel.Mutation{}, false
		}
		c := 1
		if e.Cap == 1 {
			c = 2
		}
		return flowrel.Mutation{Kind: flowrel.MutateCapacity, Link: id, Cap: c}, true
	case flowrel.MutateAdd:
		off := side * shape.Intn(2)
		u := flowrel.NodeID(off + shape.Intn(side))
		v := flowrel.NodeID(off + shape.Intn(side))
		if u == v {
			return flowrel.Mutation{}, false
		}
		return flowrel.Mutation{Kind: flowrel.MutateAdd, U: u, V: v, Cap: 1 + shape.Intn(2), PFail: 0.05 + 0.3*prob.Float64()}, true
	}
	if len(added) == 0 {
		return flowrel.Mutation{}, false
	}
	return flowrel.Mutation{Kind: flowrel.MutateRemove, Link: added[shape.Intn(len(added))]}, true
}
