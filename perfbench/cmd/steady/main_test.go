package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestLastResult(t *testing.T) {
	out := []byte("oneshot ops_per_s 1.0 1/s\n{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\"ops_per_s\":{\"value\":2.5,\"unit\":\"1/s\"}}}\n\n")
	r, err := lastResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 10 || r.Failed != 1 || r.Metrics["ops_per_s"].Value != 2.5 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := lastResult([]byte("no result\n")); err == nil {
		t.Error("output without a result object was accepted")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		spread, bound float64
		want          string
	}{
		{0.05, 0.25, "steady"},
		{0.10, 0.25, "within bound, above a third of it"},
		{0.30, 0.25, "OUTSIDE BOUND"},
	} {
		if got := verdictFor(c.spread, c.bound); got != c.want {
			t.Errorf("verdictFor(%v, %v) = %q, want %q", c.spread, c.bound, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var rs []result
	for _, v := range []float64{90, 100, 110, 100} {
		r := result{Correct: true, Attempted: 5}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{"ops_per_s": {Value: v, Unit: "1/s"}}
		rs = append(rs, r)
	}
	var b bytes.Buffer
	summarize(&b, rs, map[string]float64{"ops_per_s": 0.25})
	// Quartiles of 90, 100, 100, 110 (Python's exclusive method): 92.5,
	// 100, 107.5, so the spread is 0.15.
	if !strings.Contains(b.String(), "0.1500") || !strings.Contains(b.String(), "within bound, above a third of it") {
		t.Errorf("summary:\n%s", b.String())
	}
}
