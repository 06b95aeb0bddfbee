// Package ref is the benchmark's independent answer checker. It shares no
// code with the paths the benchmark times: the brute-force enumerator
// below carries its own small max-flow and sums every failure
// configuration directly, and the property checks compare plain float64
// values. Instances reach it as plain link lists, never as flowrel types.
package ref

import (
	"fmt"
	"math"
)

// MaxLinks bounds BruteForce: 2^MaxLinks configurations, each one max-flow.
const MaxLinks = 22

// Link is one directed link: capacity in sub-stream units and failure
// probability.
type Link struct {
	U, V int
	Cap  int
	P    float64
}

// Instance is a flow-reliability question: does a flow of D units from S
// to T survive independent link failures?
type Instance struct {
	Nodes int
	Links []Link
	S, T  int
	D     int
}

// BruteForce returns the exact reliability of in by enumerating all
// 2^|links| failure configurations and running a max-flow on each
// surviving subgraph. The feasible probability mass is summed with
// Neumaier compensation, so the result is accurate to a few ulps.
func BruteForce(in Instance) (float64, error) {
	m := len(in.Links)
	if m > MaxLinks {
		return 0, fmt.Errorf("ref: %d links exceed the brute-force limit %d", m, MaxLinks)
	}
	if in.S == in.T || in.S < 0 || in.T < 0 || in.S >= in.Nodes || in.T >= in.Nodes || in.D < 1 {
		return 0, fmt.Errorf("ref: malformed demand s=%d t=%d d=%d on %d nodes", in.S, in.T, in.D, in.Nodes)
	}
	net := newNetwork(in)
	var sum, comp float64
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		if net.maxFlow(mask, in.D) < in.D {
			continue
		}
		pr := 1.0
		for i, l := range in.Links {
			if mask&(1<<uint(i)) != 0 {
				pr *= 1 - l.P
			} else {
				pr *= l.P
			}
		}
		t := sum + pr
		if math.Abs(sum) >= math.Abs(pr) {
			comp += (sum - t) + pr
		} else {
			comp += (pr - t) + sum
		}
		sum = t
	}
	return sum + comp, nil
}

// network is a residual graph in arc-pair form: arc 2i is link i forward,
// arc 2i+1 its reverse.
type network struct {
	in   Instance
	head []int // per node, first arc index or -1
	next []int // per arc, next arc out of the same node
	to   []int // per arc, head node
	res  []int // per arc, residual capacity
	prev []int // BFS parent arc per node
	q    []int // BFS queue
}

func newNetwork(in Instance) *network {
	n := &network{
		in:   in,
		head: make([]int, in.Nodes),
		next: make([]int, 2*len(in.Links)),
		to:   make([]int, 2*len(in.Links)),
		res:  make([]int, 2*len(in.Links)),
		prev: make([]int, in.Nodes),
		q:    make([]int, 0, in.Nodes),
	}
	for i := range n.head {
		n.head[i] = -1
	}
	for i, l := range in.Links {
		for dir, from, to := 0, l.U, l.V; dir < 2; dir, from, to = dir+1, to, from {
			a := 2*i + dir
			n.to[a] = to
			n.next[a] = n.head[from]
			n.head[from] = a
		}
	}
	return n
}

// maxFlow returns min(limit, the S→T max-flow) over the links alive in
// mask.
func (n *network) maxFlow(mask uint64, limit int) int {
	for i, l := range n.in.Links {
		c := 0
		if mask&(1<<uint(i)) != 0 {
			c = l.Cap
		}
		n.res[2*i], n.res[2*i+1] = c, 0
	}
	return n.augment(limit)
}

// augment pushes flow along shortest augmenting paths (Edmonds–Karp) on
// the residual capacities already set, up to limit, and returns it.
func (n *network) augment(limit int) int {
	flow := 0
	for flow < limit {
		for i := range n.prev {
			n.prev[i] = -1
		}
		n.q = append(n.q[:0], n.in.S)
		n.prev[n.in.S] = -2
		for h := 0; h < len(n.q) && n.prev[n.in.T] == -1; h++ {
			u := n.q[h]
			for a := n.head[u]; a >= 0; a = n.next[a] {
				if v := n.to[a]; n.res[a] > 0 && n.prev[v] == -1 {
					n.prev[v] = a
					n.q = append(n.q, v)
				}
			}
		}
		if n.prev[n.in.T] == -1 {
			break
		}
		push := limit - flow
		for v := n.in.T; v != n.in.S; v = n.to[n.prev[v]^1] {
			if r := n.res[n.prev[v]]; r < push {
				push = r
			}
		}
		for v := n.in.T; v != n.in.S; v = n.to[n.prev[v]^1] {
			n.res[n.prev[v]] -= push
			n.res[n.prev[v]^1] += push
		}
		flow += push
	}
	return flow
}

// Feasible reports whether the demand can be met with every link alive.
func Feasible(in Instance) bool {
	n := newNetwork(in)
	for i, l := range in.Links {
		n.res[2*i], n.res[2*i+1] = l.Cap, 0
	}
	return n.augment(in.D) >= in.D
}

// Tol is the absolute agreement required between two exact engines.
const Tol = 1e-12

// Close returns an error when got and want differ by more than tol.
func Close(what string, got, want, tol float64) error {
	if math.IsNaN(got) || math.IsNaN(want) || math.Abs(got-want) > tol {
		return fmt.Errorf("%s: %.17g differs from reference %.17g by %.3g (tolerance %.3g)", what, got, want, math.Abs(got-want), tol)
	}
	return nil
}

// SameBits returns an error unless got and want are the same float64,
// bit for bit.
func SameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: %.17g is not bit-identical to %.17g", what, got, want)
	}
	return nil
}

// InUnit returns an error unless r is a probability.
func InUnit(what string, r float64) error {
	if !(r >= 0 && r <= 1) {
		return fmt.Errorf("%s: reliability %.17g outside [0, 1]", what, r)
	}
	return nil
}

// Monotone returns an error when raising a link's failure probability
// raised the reliability (beyond rounding tolerance): raised must not
// exceed base.
func Monotone(what string, base, raised float64) error {
	if raised > base+Tol {
		return fmt.Errorf("%s: raising a failure probability raised R from %.17g to %.17g", what, base, raised)
	}
	return nil
}
