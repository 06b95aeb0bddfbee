package stat

import (
	"math"
	"testing"
)

func TestTailSampleRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // 9.99 samples beyond p99: one short
		{1000, 0.99, true}, // exactly ten beyond
		{5000, 0.99, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{39, 0.5, true}, // the median needs only ten above it
		{19, 0.5, false},
		{0, 0.99, false},
	}
	for _, c := range cases {
		if got := TailOK(c.n, c.q); got != c.want {
			t.Errorf("TailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestTailWithholdsShortSamples(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := Tail(xs, 0.99); ok {
		t.Fatal("p99 of 500 samples has five beyond it and must not be reported")
	}
	xs = make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	v, ok := Tail(xs, 0.99)
	if !ok {
		t.Fatal("p99 of 2000 samples has twenty beyond it and must be reported")
	}
	if math.Abs(v-1979.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 1979.01", v)
	}
}

// The expected values are those of Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 1, 2}, 1, 2, 4},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(append([]float64(nil), c.xs...))
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", s)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("Median = %v, want 3", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("Median(nil) = %v, want 0", m)
	}
}
