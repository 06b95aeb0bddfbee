package gen

import (
	"fmt"
	"math"
	"testing"

	"flowrel"
)

func hashes(cs []Case) []string {
	var hs []string
	for _, c := range cs {
		hs = append(hs, flowrel.StructuralHash(c.G, c.Dem, flowrel.Config{}))
	}
	return hs
}

func TestOneshotDeterministicAndDistinct(t *testing.T) {
	a, err := Oneshot(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Oneshot(3)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := hashes(a), hashes(b)
	if len(ha) != len(hb) {
		t.Fatalf("same seed, %d and %d instances", len(ha), len(hb))
	}
	seen := map[string]bool{}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("same seed, instance %d differs", i)
		}
		if seen[ha[i]] {
			t.Fatalf("instance %d repeats an earlier structure", i)
		}
		seen[ha[i]] = true
	}
	families := map[string]int{}
	for _, c := range a {
		families[c.Family]++
	}
	for _, f := range []string{"clustered", "chain", "mesh", "figure4"} {
		if families[f] == 0 {
			t.Errorf("no %s instance in the stream", f)
		}
	}
	if pc := flowrel.PlanCacheSnapshot(); pc.Entries != 0 {
		t.Errorf("generation left %d plans in the cache", pc.Entries)
	}
	c, err := Oneshot(4)
	if err != nil {
		t.Fatal(err)
	}
	if hashes(c)[0] == ha[0] && hashes(c)[1] == ha[1] {
		t.Error("seeds 3 and 4 begin with the same instances")
	}
}

func TestWhatifClusterSizes(t *testing.T) {
	cs, err := Whatif(5)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		links := WhatifSides[i/WhatifPerBand]
		if got := ClusterLinks(c.G, links*2/3); got != [2]int{links, links} {
			t.Errorf("plan %d has %v links per cluster, want %d", i, got, links)
		}
	}
}

// Every recorded event reproduces its graph, no graph of a stream repeats
// the base or an earlier one, and a capacity flap never touches a link
// between the clusters.
func TestChurnStreamsApply(t *testing.T) {
	ss, err := Churn(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		g := s.Base.G
		seen := map[string]bool{Key(g, s.Base.Dem): true}
		for k, st := range s.Steps {
			g2, _, err := st.Mut.Apply(g)
			if err != nil {
				t.Fatalf("%s event %d: %v", s.Base.Label, k, err)
			}
			key := Key(g2, s.Base.Dem)
			if key != Key(st.G, s.Base.Dem) {
				t.Fatalf("%s event %d: recorded graph is not the mutation's result", s.Base.Label, k)
			}
			if seen[key] {
				t.Fatalf("%s event %d: graph repeats an earlier one", s.Base.Label, k)
			}
			seen[key] = true
			if st.Mut.Kind == flowrel.MutateCapacity {
				e := g.Edge(st.Mut.Link)
				if n := g.NumNodes() / 2; int(e.U)/n != int(e.V)/n {
					t.Fatalf("%s event %d: capacity flap on bottleneck link %d", s.Base.Label, k, st.Mut.Link)
				}
			}
			g = st.G
		}
	}
}

// Churn's structure is the fixed corpus on every seed; the seed draws the
// failure probabilities and the order of the streams.
func TestChurnSeedDrawsProbabilitiesOnly(t *testing.T) {
	structure := func(seed int64) (map[string]int, []float64) {
		ss, err := Churn(seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]int{}
		var ps []float64
		for _, s := range ss {
			k := Key(s.Base.G, s.Base.Dem)
			for _, st := range s.Steps {
				m := st.Mut
				k += fmt.Sprintf("|%d %d %d %d %d", m.Kind, m.Link, m.U, m.V, m.Cap)
			}
			keys[k]++
			ps = append(ps, s.Base.G.Edge(0).PFail)
		}
		return keys, ps
	}
	k1, p1 := structure(1)
	k2, p2 := structure(2)
	if len(k1) != len(k2) {
		t.Fatalf("seeds 1 and 2 give %d and %d distinct streams", len(k1), len(k2))
	}
	for k, n := range k1 {
		if k2[k] != n {
			t.Fatal("seeds 1 and 2 give different stream structures")
		}
	}
	same := true
	for i := range p1 {
		same = same && math.Float64bits(p1[i]) == math.Float64bits(p2[i])
	}
	if same {
		t.Error("seeds 1 and 2 give the same failure probabilities in the same order")
	}
}
