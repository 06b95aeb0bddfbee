package ref_test

import (
	"fmt"
	"math"
	"testing"

	"flowrel"
	"flowrelbench/internal/ref"
)

// instance converts an overlay's graph and its last-peer demand into the
// checker's plain form. (internal/gen has the same conversion; this test
// does not import it, since gen imports ref.)
func instance(o *flowrel.Overlay) (ref.Instance, *flowrel.Graph, flowrel.Demand) {
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	in := ref.Instance{Nodes: o.G.NumNodes(), S: int(dem.S), T: int(dem.T), D: dem.D}
	for _, e := range o.G.Edges() {
		in.Links = append(in.Links, ref.Link{U: int(e.U), V: int(e.V), Cap: e.Cap, P: e.PFail})
	}
	return in, o.G, dem
}

// The paper's figures, with the reliabilities every exact engine of the
// repository prints for them (rounded to 12 decimals).
func TestBruteForceFigures(t *testing.T) {
	for _, c := range []struct {
		name string
		o    *flowrel.Overlay
		want float64
	}{
		{"figure2", flowrel.Figure2Overlay(), 0.882648049500},
		{"figure4", flowrel.Figure4Overlay(), 0.922455256860},
	} {
		in, _, _ := instance(c.o)
		r, err := ref.BruteForce(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(r-c.want) > 1e-12 {
			t.Errorf("%s: brute force %.15f, want %.12f", c.name, r, c.want)
		}
	}
}

func TestBruteForceAgreesWithFactoring(t *testing.T) {
	checked := 0
	for seed := int64(1); checked < 20; seed++ {
		var o *flowrel.Overlay
		var err error
		if seed%2 == 0 {
			o, err = flowrel.MeshOverlay(6, 2, 2, 2, 0.1, seed)
		} else {
			o, err = flowrel.ClusteredOverlay(4, 6, 2, 2, 2, 0.15, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		in, g, dem := instance(o)
		if len(in.Links) > 16 || !ref.Feasible(in) {
			continue
		}
		bf, err := ref.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := flowrel.Compute(g, dem, flowrel.Config{Engine: flowrel.EngineFactoring})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Close("seed "+fmt.Sprint(seed), bf, rep.Reliability, ref.Tol); err != nil {
			t.Error(err)
		}
		checked++
	}
}

// A wrong answer as small as 1e-9 must not pass any of the checks the
// workloads apply.
func TestPerturbedAnswerIsCaught(t *testing.T) {
	in, _, _ := instance(flowrel.Figure4Overlay())
	want, err := ref.BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close("exact", want, want, ref.Tol); err != nil {
		t.Fatalf("the reference itself was rejected: %v", err)
	}
	if err := ref.SameBits("exact", want, want); err != nil {
		t.Fatalf("the reference itself was rejected: %v", err)
	}
	for _, delta := range []float64{1e-9, -1e-9} {
		got := want + delta
		if ref.Close("perturbed", got, want, ref.Tol) == nil {
			t.Errorf("Close accepted R%+g", delta)
		}
		if ref.SameBits("perturbed", got, want) == nil {
			t.Errorf("SameBits accepted R%+g", delta)
		}
	}
	if ref.SameBits("one ulp", math.Nextafter(want, 2), want) == nil {
		t.Error("SameBits accepted a one-ulp change")
	}
	if ref.InUnit("above one", 1+1e-9) == nil || ref.InUnit("negative", -1e-9) == nil || ref.InUnit("nan", math.NaN()) == nil {
		t.Error("InUnit accepted a value outside [0, 1]")
	}
	if ref.Monotone("raised", want, want+1e-9) == nil {
		t.Error("Monotone accepted a reliability that rose with a failure probability")
	}
	if ref.Monotone("lowered", want, want-1e-3) != nil {
		t.Error("Monotone rejected a reliability that fell")
	}
}

func TestFeasible(t *testing.T) {
	in := ref.Instance{Nodes: 3, S: 0, T: 2, D: 2, Links: []ref.Link{
		{U: 0, V: 1, Cap: 2, P: 0.1},
		{U: 1, V: 2, Cap: 1, P: 0.1},
	}}
	if ref.Feasible(in) {
		t.Error("a path of capacity 1 carries a demand of 2")
	}
	in.Links = append(in.Links, ref.Link{U: 1, V: 2, Cap: 1, P: 0.1})
	if !ref.Feasible(in) {
		t.Error("two parallel unit links do not carry a demand of 2")
	}
	r, err := ref.BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.9 * 0.9 * 0.9; math.Abs(r-want) > 1e-15 {
		t.Errorf("BruteForce = %v, want %v", r, want)
	}
}
