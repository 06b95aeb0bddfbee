package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"flowrel"
	"flowrelbench/internal/gen"
	"flowrelbench/internal/ref"
	"flowrelbench/internal/stat"
	"flowrelbench/internal/svc"
)

const (
	// serviceConns is the closed loop's connection count: one per core
	// of the reference machine, so client and server share two cores.
	serviceConns = 2
	// serviceActions is the number of actions per connection and round.
	// A mutate or submit action is two requests: the call and an eval of
	// the handle it returned.
	serviceActions = 250
	serviceVectors = 16 // probability vectors per working-set topology
	serviceBatch   = 32 // scenarios per evalbatch request
	// serviceEvents is the length of each working-set topology's event
	// stream. Mutation chains run on across rounds and wrap back to the
	// submitted topology after the last event, so a plan comes round again
	// only after several hundred others have passed through the server's
	// plan cache (64 plans), long after it was evicted.
	serviceEvents = 48
	// serviceWindow is the throughput sampling interval; ops_per_s is the
	// median over the windows of the timed phase.
	serviceWindow = 500 * time.Millisecond
)

// Request kinds; the follow-up eval after a mutate or submit is an eval.
const (
	kEval = iota
	kBatch
	kMutate
	kSubmit
	nKinds
)

var kindNames = [nKinds]string{"eval", "evalbatch", "mutate", "submit"}

// action is one step of a connection's fixed per-round sequence.
type action struct {
	kind int
	base int // working-set topology
	vec  int // first probability vector (eval, evalbatch)
}

// serviceInputs is everything the timed loop sends and checks against.
type serviceInputs struct {
	work    []gen.Stream
	unseen  []gen.Case
	vectors [][][]float64 // per base topology
	want    [][]float64   // in-process Plan.Eval of each vector
	unseenR []float64     // in-process Plan.Eval of each unseen topology
	seq     [serviceConns][]action
	handles []string // working-set handles, from the last set-up
}

// runService drives relcalcd, built from this tree and run as a child
// process, with a closed loop of serviceConns connections.
func runService(o opts) (*outcome, error) {
	work, unseen, err := gen.Service(o.seed, serviceEvents)
	if err != nil {
		return nil, err
	}
	in, err := serviceRefs(o.seed, work, unseen)
	if err != nil {
		return nil, err
	}
	dir := o.work
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(o.root, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(dir, "relcalcd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin, err := svc.Build(o.root, tmp)
	if err != nil {
		return nil, err
	}

	// Set-up: start the server, wait until it is ready and submit the
	// working set. Every repetition but the last stops its server.
	var srv *svc.Server
	setup, err := medianSetup(func() error {
		if srv != nil {
			if err := srv.Stop(); err != nil {
				return err
			}
		}
		var err error
		if srv, err = svc.Start(bin, tmp); err != nil {
			return err
		}
		in.handles, err = submitWorkingSet(srv.URL, work)
		return err
	})
	if srv != nil {
		defer srv.Stop()
	}
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: map[string]float64{}}
	clients := make([]*serviceClient, serviceConns)
	for c := range clients {
		clients[c] = &serviceClient{conn: c, in: in, url: srv.URL, out: &outcome{},
			heads: map[int]string{}, pos: map[int]int{},
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
	}
	// Untimed warm-up: one round per connection.
	runClients(clients, 0, false)
	for _, cl := range clients {
		cl.reset()
	}

	if !o.trace {
		rate := runClients(clients, o.seconds, false)
		// The eval round trips of both connections, with each connection's
		// round ends as the places the tail chunks may be cut.
		w := &window{}
		for _, cl := range clients {
			off := len(w.lat)
			w.lat = append(w.lat, cl.rtt[kEval]...)
			for _, end := range cl.evalEnds {
				w.ends = append(w.ends, off+end)
			}
		}
		e2e(out.metrics, setup, rate, w)
	} else {
		// No tracer runs inside the server's handlers, so the traced run is
		// one phase measured from the client and from the server's own
		// counters, and there is no tracing overhead to report.
		ctx := context.Background()
		snap0, err := srv.Snapshot(ctx)
		if err != nil {
			return nil, err
		}
		var ru0, ru1 syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runClients(clients, o.seconds, true)
		runtime.ReadMemStats(&m1)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		snap1, err := srv.Snapshot(ctx)
		if err != nil {
			return nil, err
		}
		serviceLayers(out.metrics, clients, snap0, snap1)
		n := int64(0)
		for _, cl := range clients {
			n += cl.ops
		}
		m := out.metrics
		m["client.cpu_s"] = cpuSeconds(ru1) - cpuSeconds(ru0)
		m["runtime.alloc_bytes_per_op"] = perOp(float64(m1.TotalAlloc-m0.TotalAlloc), n)
		m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	}
	for _, cl := range clients {
		cl.merge(out)
	}
	return out, nil
}

// serviceRefs computes, in this process and outside the timed phase,
// every answer the server must reproduce bit for bit, checks the unseen
// topologies against the factoring engine, and draws each connection's
// request sequence.
func serviceRefs(seed int64, work []gen.Stream, unseen []gen.Case) (*serviceInputs, error) {
	defer flowrel.ResetPlanCache()
	in := &serviceInputs{work: work, unseen: unseen}
	rng := gen.Rand(seed, 300)
	for _, s := range work {
		p, err := flowrel.CompilePlan(s.Base.G, s.Base.Dem, flowrel.Config{})
		if err != nil {
			return nil, err
		}
		var vecs [][]float64
		var want []float64
		for v := 0; v < serviceVectors; v++ {
			vec := gen.Vector(rng, p.NumEdges(), 0.01, 0.3)
			r, err := p.Eval(vec)
			if err != nil {
				return nil, err
			}
			vecs = append(vecs, vec)
			want = append(want, r)
		}
		in.vectors = append(in.vectors, vecs)
		in.want = append(in.want, want)
	}
	for _, c := range unseen {
		p, err := flowrel.CompilePlan(c.G, c.Dem, flowrel.Config{})
		if err != nil {
			return nil, err
		}
		r, err := p.Eval(nil)
		if err != nil {
			return nil, err
		}
		rep, err := flowrel.Compute(c.G, c.Dem, flowrel.Config{Engine: flowrel.EngineFactoring})
		if err != nil {
			return nil, err
		}
		if err := ref.Close("service topology "+c.Label+" against factoring", r, rep.Reliability, ref.Tol); err != nil {
			return nil, err
		}
		in.unseenR = append(in.unseenR, r)
	}
	for c := 0; c < serviceConns; c++ {
		in.seq[c] = serviceSequence(gen.Rand(seed, int64(310+c)), c, len(work))
	}
	return in, nil
}

// serviceSequence returns one connection's per-round actions in a seeded
// order: 85% single evals with explicit probability vectors, 8% evalbatch
// requests, 4% mutations chained along a working-set topology's event
// stream and 3% submits of unseen topologies, in exactly these counts so
// that every seed sends the same mix. Connection c owns the working-set
// topologies with index ≡ c (mod serviceConns), so its mutation chains
// are its own.
func serviceSequence(rng *rand.Rand, c, nWork int) []action {
	var own []int
	for b := c; b < nWork; b += serviceConns {
		own = append(own, b)
	}
	counts := [nKinds]int{kBatch: serviceActions * 8 / 100, kMutate: serviceActions * 4 / 100, kSubmit: serviceActions * 3 / 100}
	counts[kEval] = serviceActions - counts[kBatch] - counts[kMutate] - counts[kSubmit]
	var seq []action
	for k, n := range counts {
		for i := 0; i < n; i++ {
			seq = append(seq, action{kind: k, base: own[rng.Intn(len(own))], vec: rng.Intn(serviceVectors)})
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for i := range seq {
		if seq[i].kind == kMutate {
			seq[i].base = own[i%len(own)]
		}
	}
	return seq
}

// submitWorkingSet submits every working-set topology and returns the
// handles.
func submitWorkingSet(url string, work []gen.Stream) ([]string, error) {
	var handles []string
	for _, s := range work {
		body, err := json.Marshal(map[string]any{"topology": &flowrel.File{Graph: s.Base.G, Demand: &s.Base.Dem}})
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(url+"/v1/topologies", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		var sr struct {
			Handle string `json:"handle"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("submitting %s: %s %v", s.Base.Label, resp.Status, err)
		}
		handles = append(handles, sr.Handle)
	}
	return handles, nil
}

// serviceClient is one closed-loop connection. Its fields are touched by
// its own goroutine only, until runClients returns.
type serviceClient struct {
	conn int
	in   *serviceInputs
	url  string
	http *http.Client
	out  *outcome

	// Mutation chains, which run on across rounds and phases: the handle
	// each working-set topology's chain has reached (absent: the
	// submitted topology) and the index of its next event.
	heads map[int]string
	pos   map[int]int

	submits  int   // unseen topologies submitted so far
	ops      int64 // requests sent
	rtt      [nKinds][]float64
	evalEnds []int         // len(rtt[kEval]) after each round
	cached   [nKinds]int64 // mutate and submit responses served from the plan cache
	done     []float64     // completion offsets (s) from the phase start
	encodeUS float64
	decodeUS float64
	traced   bool
	phase    time.Time
}

func (cl *serviceClient) reset() {
	cl.ops = 0
	cl.rtt = [nKinds][]float64{}
	cl.evalEnds = nil
	cl.cached = [nKinds]int64{}
	cl.done = nil
	cl.encodeUS, cl.decodeUS = 0, 0
}

// merge adds the client's counts and check failures to out.
func (cl *serviceClient) merge(out *outcome) {
	out.attempted += cl.out.attempted
	out.failed += cl.out.failed
	for _, w := range cl.out.wrong {
		out.checkf("connection %d: %s", cl.conn, w)
	}
	for _, n := range cl.out.notes {
		if len(out.notes) < 8 {
			out.notes = append(out.notes, fmt.Sprintf("connection %d: %s", cl.conn, n))
		}
	}
	cl.out.attempted, cl.out.failed, cl.out.wrong, cl.out.notes = 0, 0, nil, nil
}

// runClients runs every connection's whole rounds until seconds have
// passed (one round each for seconds 0) and returns the median request
// rate over the serviceWindow intervals of the phase, or the phase's
// overall rate when it is shorter than one interval.
func runClients(clients []*serviceClient, seconds float64, traced bool) float64 {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, cl := range clients {
		cl.traced, cl.phase = traced, start
		wg.Add(1)
		go func(cl *serviceClient) {
			defer wg.Done()
			for r := 0; r == 0 || time.Now().Before(deadline); r++ {
				cl.round()
			}
		}(cl)
	}
	wg.Wait()
	nWin := int(seconds / serviceWindow.Seconds())
	if nWin == 0 {
		var n int
		for _, cl := range clients {
			n += len(cl.done)
		}
		return float64(n) / time.Since(start).Seconds()
	}
	counts := make([]float64, nWin)
	for _, cl := range clients {
		for _, t := range cl.done {
			if i := int(t / serviceWindow.Seconds()); i < nWin {
				counts[i]++
			}
		}
	}
	for i := range counts {
		counts[i] /= serviceWindow.Seconds()
	}
	return stat.Median(counts)
}

// round sends the connection's action sequence once.
func (cl *serviceClient) round() {
	defer func() { cl.evalEnds = append(cl.evalEnds, len(cl.rtt[kEval])) }()
	for _, a := range cl.in.seq[cl.conn] {
		switch a.kind {
		case kEval:
			var resp struct {
				Reliability float64 `json:"reliability"`
			}
			if cl.call(kEval, "/v1/plans/"+cl.in.handles[a.base]+"/eval", map[string]any{"pfail": cl.in.vectors[a.base][a.vec]}, &resp) {
				cl.expect(resp.Reliability, cl.in.want[a.base][a.vec], "eval base %d vector %d", a.base, a.vec)
			}
		case kBatch:
			sc := make([][]float64, serviceBatch)
			for i := range sc {
				sc[i] = cl.in.vectors[a.base][(a.vec+i)%serviceVectors]
			}
			var resp struct {
				Reliabilities []float64 `json:"reliabilities"`
			}
			if cl.call(kBatch, "/v1/plans/"+cl.in.handles[a.base]+"/evalbatch", map[string]any{"scenarios": sc}, &resp) {
				if len(resp.Reliabilities) != serviceBatch {
					cl.out.checkf("evalbatch base %d: %d answers for %d scenarios", a.base, len(resp.Reliabilities), serviceBatch)
					continue
				}
				for i, r := range resp.Reliabilities {
					cl.expect(r, cl.in.want[a.base][(a.vec+i)%serviceVectors], "evalbatch base %d scenario %d", a.base, i)
				}
			}
		case kMutate:
			head, ok := cl.heads[a.base]
			if !ok {
				head = cl.in.handles[a.base]
			}
			k := cl.pos[a.base]
			steps := cl.in.work[a.base].Steps
			var resp struct {
				Handle string `json:"handle"`
				Cached bool   `json:"cached"`
			}
			if !cl.call(kMutate, "/v1/plans/"+head+"/mutate", mutationBody(steps[k].Mut), &resp) {
				cl.skipFollow() // the chain stays where it was
				continue
			}
			if resp.Cached {
				cl.cached[kMutate]++
			}
			if k+1 < len(steps) {
				cl.heads[a.base], cl.pos[a.base] = resp.Handle, k+1
			} else {
				delete(cl.heads, a.base)
				cl.pos[a.base] = 0
			}
			cl.follow(resp.Handle, steps[k].Want, "eval after mutate base %d event %d", a.base, k)
		case kSubmit:
			u := (cl.conn + serviceConns*cl.submits) % len(cl.in.unseen)
			cl.submits++
			c := cl.in.unseen[u]
			var resp struct {
				Handle string `json:"handle"`
				Cached bool   `json:"cached"`
			}
			if !cl.call(kSubmit, "/v1/topologies", map[string]any{"topology": &flowrel.File{Graph: c.G, Demand: &c.Dem}}, &resp) {
				cl.skipFollow()
				continue
			}
			if resp.Cached {
				cl.cached[kSubmit]++
			}
			cl.follow(resp.Handle, cl.in.unseenR[u], "eval after submit of unseen topology %d by connection %d", u, cl.conn)
		}
	}
}

// follow evaluates a handle just returned at its own probabilities.
func (cl *serviceClient) follow(handle string, want float64, format string, a, b int) {
	var resp struct {
		Reliability float64 `json:"reliability"`
	}
	if cl.call(kEval, "/v1/plans/"+handle+"/eval", map[string]any{}, &resp) {
		cl.expect(resp.Reliability, want, format, a, b)
	}
}

// skipFollow counts the follow-up eval a failed mutate or submit could
// not send as attempted and failed, so every round has the same shape.
func (cl *serviceClient) skipFollow() {
	cl.out.attempted++
	cl.out.fail(1, "follow-up eval not sent")
}

// mutationBody is the relcalcd mutate request for m.
func mutationBody(m flowrel.Mutation) map[string]any {
	switch m.Kind {
	case flowrel.MutateCapacity:
		return map[string]any{"kind": "capacity", "link": m.Link, "cap": m.Cap}
	case flowrel.MutateAdd:
		return map[string]any{"kind": "add", "u": m.U, "v": m.V, "cap": m.Cap, "pfail": m.PFail}
	}
	return map[string]any{"kind": "remove", "link": m.Link}
}

// call sends one POST and decodes a 2xx response into v. A connection
// error, a non-2xx status or an undecodable body is a failed operation.
func (cl *serviceClient) call(kind int, path string, body any, v any) bool {
	cl.out.attempted++
	cl.ops++
	start := time.Now()
	b, err := json.Marshal(body)
	encoded := time.Now()
	if err != nil {
		cl.out.fail(1, "encoding %s request: %v", kindNames[kind], err)
		return false
	}
	resp, err := cl.http.Post(cl.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		cl.out.fail(1, "%s %s: %v", kindNames[kind], path, err)
		return false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	received := time.Now()
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if err != nil {
		cl.out.fail(1, "%s %s: %v", kindNames[kind], path, err)
		return false
	}
	err = json.Unmarshal(raw, v)
	end := time.Now()
	if err != nil {
		cl.out.fail(1, "%s %s: decoding the response: %v", kindNames[kind], path, err)
		return false
	}
	cl.rtt[kind] = append(cl.rtt[kind], us(end.Sub(start)))
	cl.done = append(cl.done, end.Sub(cl.phase).Seconds())
	if cl.traced {
		cl.encodeUS += us(encoded.Sub(start))
		cl.decodeUS += us(end.Sub(received))
	}
	return true
}

// expect checks one service answer against the in-process evaluation; a
// mismatch is a failed operation and fails the run's answer checks. The
// answer is named by format and two integers, formatted only on a
// mismatch.
func (cl *serviceClient) expect(got, want float64, format string, a, b int) {
	if err := ref.SameBits("answer against in-process Plan.Eval", got, want); err != nil {
		cl.out.wrongf(format+": %v", a, b, err)
	}
}

// serviceLayers derives the service's per-layer metrics from the clients'
// traced phase and the server snapshots around it.
func serviceLayers(m map[string]float64, clients []*serviceClient, s0, s1 svc.Snapshot) {
	var rtt [nKinds][]float64
	var cached [nKinds]int64
	var n int64
	var enc, dec float64
	for _, cl := range clients {
		for k := range rtt {
			rtt[k] = append(rtt[k], cl.rtt[k]...)
			cached[k] += cl.cached[k]
		}
		n += cl.ops
		enc += cl.encodeUS
		dec += cl.decodeUS
	}
	server := [nKinds]string{"eval", "evalbatch", "mutate", "compile"}
	metric := [nKinds]string{"relcalcd.eval_handler_us", "relcalcd.evalbatch_handler_us", "relcalcd.mutate_us", "relcalcd.compile_us"}
	for k := 0; k < nKinds; k++ {
		h0, h1 := s0.Stats.Latency[server[k]], s1.Stats.Latency[server[k]]
		handler := perOp(float64(h1.Sum-h0.Sum), h1.Count-h0.Count)
		m[metric[k]] = handler
		var sum float64
		for _, x := range rtt[k] {
			sum += x
		}
		if len(rtt[k]) > 0 {
			m["relcalcd.outside_solver_"+kindNames[k]+"_us"] = sum/float64(len(rtt[k])) - handler
		}
		m["client."+kindNames[k]+"_rtt_p50_us"] = stat.Median(rtt[k])
	}
	m["relcalcd.mutate_cached_share"] = perOp(float64(cached[kMutate]), int64(len(rtt[kMutate])))
	m["relcalcd.submit_cached_share"] = perOp(float64(cached[kSubmit]), int64(len(rtt[kSubmit])))
	if hits, misses := s1.Stats.PlanCache.Hits-s0.Stats.PlanCache.Hits, s1.Stats.PlanCache.Misses-s0.Stats.PlanCache.Misses; hits+misses > 0 {
		m["plancache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	reqs := s1.Stats.Requests - s0.Stats.Requests
	m["relcalcd.alloc_bytes_per_request"] = perOp(float64(s1.Mem.TotalAlloc-s0.Mem.TotalAlloc), reqs)
	m["relcalcd.gc_cycles"] = float64(s1.Mem.NumGC - s0.Mem.NumGC)
	m["relcalcd.rejected"] = float64(s1.Stats.Admission.Rejected - s0.Stats.Admission.Rejected)
	m["relcalcd.cpu_s"] = s1.CPU - s0.CPU
	m["client.encode_us"] = perOp(enc, n)
	m["client.decode_us"] = perOp(dec, n)
}

func cpuSeconds(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
