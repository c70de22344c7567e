package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// testFixture builds a small skewed graph plus a 2-layer GCN — the degree-
// scaled model is the hardest case for subgraph/full-graph agreement.
func testFixture(t testing.TB) (*graph.Graph, *gas.Model) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "serve", Nodes: 200, AvgDegree: 4, Skew: datagen.SkewIn, Exponent: 1.5,
		FeatureDim: 6, NumClasses: 3, TrainFrac: 0.3, ValFrac: 0.1, Seed: 7,
	})
	m := gas.NewGCNModel("serve-gcn", gas.TaskSingleLabel, 6, 10, 3, 2, tensor.NewRNG(17))
	return ds.Graph, m
}

func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	g, m := testFixture(t)
	cfg := Config{
		Model: m, Graph: g,
		Refresh:      inference.Options{NumWorkers: 3},
		QueryWorkers: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wake, notify := newWake()
	armWake(t, s, wake, notify)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// outcome is one /v1/query round trip.
type outcome struct {
	status int
	qr     QueryResponse
	header http.Header
	err    error
}

func doQuery(ts *httptest.Server, req QueryRequest) outcome {
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: fmt.Errorf("query: %w", err)}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode, header: resp.Header}
	if err := json.NewDecoder(resp.Body).Decode(&o.qr); err != nil {
		o.err = fmt.Errorf("query response decode: %w", err)
	}
	return o
}

func postQuery(t testing.TB, ts *httptest.Server, req QueryRequest) (int, QueryResponse, http.Header) {
	t.Helper()
	o := doQuery(ts, req)
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.status, o.qr, o.header
}

// queryAsync runs one query on its own goroutine; the caller checks the
// outcome (transport errors included) on the test goroutine.
func queryAsync(ts *httptest.Server, req QueryRequest) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() { ch <- doQuery(ts, req) }()
	return ch
}

// recv waits for an async query's outcome and fails on a transport error.
func recv(t *testing.T, ch <-chan outcome) outcome {
	t.Helper()
	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o
}

// parkKey marks the context of the jobs parkExecutors injects.
type parkKey struct{}

// parked holds every batch executor inside execHook, so jobs queued while it
// lasts wait in the admission queue and the batches they form are decided by
// the backlog alone, not by arrival timing.
type parked struct {
	gate chan struct{}
	once sync.Once
}

// parkExecutors installs an execHook that parks batches of injected jobs on
// a gate and runs hook (when non-nil) for every other batch, then injects one
// job per executor, each only after the previous one is parked — so it
// returns once s.executors batches are inside execHook at the same time.
// The gate always opens at cleanup, before the server closes, so a failing
// test never leaves Close waiting on a parked executor.
func parkExecutors(t *testing.T, s *Server, hook func([]*job)) *parked {
	t.Helper()
	p := &parked{gate: make(chan struct{})}
	t.Cleanup(p.releaseAll)
	entered := make(chan struct{}, s.executors) // one send per injected job
	s.execHook = func(batch []*job) {
		if batch[0].ctx.Value(parkKey{}) == nil {
			if hook != nil {
				hook(batch)
			}
			return
		}
		entered <- struct{}{}
		<-p.gate
	}
	for i := 0; i < s.executors; i++ {
		ctx := context.WithValue(context.Background(), parkKey{}, true)
		s.queue <- &job{ctx: ctx, roots: []int32{0}, res: make(chan jobResult, 1)}
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d executors parked", i, s.executors)
		}
	}
	return p
}

// releaseOne lets exactly one parked executor go: it alone drains the
// backlog, in queue order, while the others stay parked.
func (p *parked) releaseOne() { p.gate <- struct{}{} }

// releaseAll lets every parked executor go. Idempotent.
func (p *parked) releaseAll() { p.once.Do(func() { close(p.gate) }) }

// wakes maps each test server to the channel its seams feed: one wake-up
// per admitted query, bumped counter or persist outcome.
var wakes sync.Map // *Server → chan struct{}

// newWake makes a wake channel and the hook that feeds it. The hook never
// blocks — it runs on serving goroutines — and a full buffer already holds
// a wake-up.
func newWake() (chan struct{}, func()) {
	ch := make(chan struct{}, 16)
	return ch, func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// armWake registers s's wake channel and points its admission and counter
// seams at notify. Call before Start.
func armWake(t testing.TB, s *Server, ch chan struct{}, notify func()) {
	wakes.Store(s, ch)
	t.Cleanup(func() { wakes.Delete(s) })
	s.admitHook, s.countHook = notify, notify
}

// waitFor blocks until cond holds, re-checking it after every wake-up of s
// — what it waits on completes on a serving goroutine (a handler, a batch
// executor, the refresh loop or the session persister). The deadline only
// bounds a failure.
func waitFor(t testing.TB, s *Server, msg string, cond func() bool) {
	t.Helper()
	ch, _ := wakes.Load(s)
	timeout := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-ch.(chan struct{}):
		case <-timeout:
			t.Fatalf("timed out waiting for %s", msg)
		}
	}
}

// waitQueued waits until n jobs sit in the admission queue.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	waitFor(t, s, fmt.Sprintf("%d queued jobs", n), func() bool { return len(s.queue) >= n })
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Fresh k-hop answers must agree with the resident store bit for bit: same
// model, same graph, so degradation can never change values — only
// freshness metadata.
func TestFreshAnswersMatchStoreBitwise(t *testing.T) {
	s, ts := newTestServer(t, nil)
	snap := s.Store()
	if snap == nil || snap.Epoch != 1 {
		t.Fatalf("store not populated after Start: %+v", snap)
	}
	for _, roots := range [][]int32{{0}, {5, 190}, {42, 7, 99}} {
		status, qr, _ := postQuery(t, ts, QueryRequest{Roots: roots, DeadlineMs: 5000})
		if status != 200 {
			t.Fatalf("status %d: %s", status, qr.Error)
		}
		if len(qr.Answers) != len(roots) {
			t.Fatalf("%d answers for %d roots", len(qr.Answers), len(roots))
		}
		for i, a := range qr.Answers {
			if a.Source != "fresh" || a.Stale {
				t.Fatalf("answer %+v not fresh", a)
			}
			if a.Node != roots[i] {
				t.Fatalf("answer %d for node %d, want %d", i, a.Node, roots[i])
			}
			if !bitEqual(a.Logits, snap.Logits.Row(int(roots[i]))) {
				t.Fatalf("node %d: fresh logits %v != store %v", roots[i], a.Logits, snap.Logits.Row(int(roots[i])))
			}
			if a.Class != snap.Classes[roots[i]] {
				t.Fatalf("node %d: class %d != store %d", roots[i], a.Class, snap.Classes[roots[i]])
			}
		}
	}
	// Store lookups agree too.
	resp, err := http.Get(ts.URL + "/v1/nodes/42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var a Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || a.Stale || a.Epoch != 1 || !bitEqual(a.Logits, snap.Logits.Row(42)) {
		t.Fatalf("store lookup mismatch: status=%d answer=%+v", resp.StatusCode, a)
	}
}

func TestBadRequestsRejectedCleanly(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []QueryRequest{
		{},                       // nothing to answer
		{Roots: []int32{-1}},     // negative root
		{Roots: []int32{100000}}, // out of range
		{Roots: []int32{3, 3}},   // duplicate
		{Roots: []int32{1}, Overrides: map[string][]float32{"zzz": {1}}},                // bad key
		{Roots: []int32{1}, Overrides: map[string][]float32{"2": {1, 2}}},               // bad dim
		{ColdStart: &ColdStartRequest{Features: []float32{1, 2, 3, 4, 5, 6}}},           // no neighbors
		{ColdStart: &ColdStartRequest{Features: []float32{1}, InNeighbors: []int32{2}}}, // bad dim
	}
	for i, req := range cases {
		status, qr, _ := postQuery(t, ts, req)
		if status != 400 || qr.Error == "" {
			t.Fatalf("case %d: status=%d err=%q, want 400 with message", i, status, qr.Error)
		}
	}
	// Node lookups out of range 404, non-integers 400.
	for path, want := range map[string]int{"/v1/nodes/99999": 404, "/v1/nodes/xyz": 400} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// At 2x admission-queue capacity the server sheds deterministically with
// 429 + Retry-After while every admitted request completes.
func TestOverloadShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.QueueDepth = 4 })
	// Every executor is busy (parked in the hook)...
	p := parkExecutors(t, s, nil)
	// ...four requests fill the bounded queue...
	var admitted []<-chan outcome
	for r := int32(1); r <= 4; r++ {
		admitted = append(admitted, queryAsync(ts, QueryRequest{Roots: []int32{r}, DeadlineMs: 10000}))
	}
	waitQueued(t, s, 4)
	// ...so the next four — 2x queue capacity in flight — must shed with 429.
	for r := int32(5); r <= 8; r++ {
		status, qr, hdr := postQuery(t, ts, QueryRequest{Roots: []int32{r}, DeadlineMs: 10000})
		if status != 429 {
			t.Fatalf("root %d: status %d (%s), want 429", r, status, qr.Error)
		}
		if got := hdr.Get("Retry-After"); got != "1" {
			t.Fatalf("429 with Retry-After %q, want \"1\"", got)
		}
	}
	p.releaseAll()
	for _, ch := range admitted {
		if o := recv(t, ch); o.status != 200 {
			t.Fatalf("admitted request failed: %d %s", o.status, o.qr.Error)
		}
	}
	if got := s.m.shed.Load(); got != 4 {
		t.Fatalf("shed=%d, want 4", got)
	}
	if ok, reason := s.Ready(); !ok {
		t.Fatalf("server unready after load drained: %s", reason)
	}
}

// A fresh query that misses its deadline degrades to the resident store's
// answer, marked stale with the store epoch — values identical, freshness
// honest.
func TestDeadlineDegradesToStaleStoreAnswer(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.execHook = func([]*job) { time.Sleep(300 * time.Millisecond) }
	status, qr, _ := postQuery(t, ts, QueryRequest{Roots: []int32{11}, DeadlineMs: 40})
	if status != 200 {
		t.Fatalf("status %d: %s", status, qr.Error)
	}
	a := qr.Answers[0]
	if !a.Stale || a.Source != "store" || a.Epoch != 1 {
		t.Fatalf("answer not degraded-from-store: %+v", a)
	}
	if !bitEqual(a.Logits, s.Store().Logits.Row(11)) {
		t.Fatal("degraded answer diverges from the store")
	}
	waitCounter(t, s, &s.m.degraded, 1)
	// What-if queries have no store fallback: an expired deadline is an
	// honest 504, never a silently wrong answer.
	status, qr, _ = postQuery(t, ts, QueryRequest{
		Roots: []int32{11}, DeadlineMs: 40,
		Overrides: map[string][]float32{"11": {0, 0, 0, 0, 0, 0}},
	})
	if status != 504 || qr.Error == "" {
		t.Fatalf("what-if past deadline: status=%d err=%q, want 504", status, qr.Error)
	}
}

// Within one micro-batch, a member whose deadline expires degrades while a
// member with headroom still gets the fresh result of the shared pass.
func TestPartialBatchDeadline(t *testing.T) {
	s, ts := newTestServer(t, nil)
	p := parkExecutors(t, s, func([]*job) { time.Sleep(250 * time.Millisecond) })
	short := queryAsync(ts, QueryRequest{Roots: []int32{20}, DeadlineMs: 80})
	long := queryAsync(ts, QueryRequest{Roots: []int32{21}, DeadlineMs: 5000})
	waitQueued(t, s, 2)
	p.releaseOne() // one executor takes both jobs as one batch
	so, lo := recv(t, short), recv(t, long)
	if so.status != 200 || !so.qr.Answers[0].Stale || so.qr.Answers[0].Source != "store" {
		t.Fatalf("short-deadline member: status=%d answers=%+v, want stale store answer", so.status, so.qr.Answers)
	}
	if lo.status != 200 || lo.qr.Answers[0].Stale || lo.qr.Answers[0].Source != "fresh" {
		t.Fatalf("long-deadline member: status=%d answers=%+v, want fresh answer", lo.status, lo.qr.Answers)
	}
	if !bitEqual(lo.qr.Answers[0].Logits, s.Store().Logits.Row(21)) {
		t.Fatal("fresh member's logits diverge from the store")
	}
}

// When every member of a batch is past deadline, the propagated Cancel
// aborts the pass at a superstep boundary instead of burning the compute
// plane on answers nobody is waiting for.
func TestFullBatchCancelAbortsCompute(t *testing.T) {
	s, ts := newTestServer(t, nil)
	// Deadlines outlive the queue wait (so the batch reaches compute) but
	// expire during the injected sleep (so Cancel fires mid-pass).
	p := parkExecutors(t, s, func([]*job) { time.Sleep(500 * time.Millisecond) })
	var outs []<-chan outcome
	for _, root := range []int32{30, 31} {
		outs = append(outs, queryAsync(ts, QueryRequest{Roots: []int32{root}, DeadlineMs: 200}))
	}
	waitQueued(t, s, 2)
	p.releaseOne()
	for i, ch := range outs {
		o := recv(t, ch)
		if o.status != 200 || !o.qr.Answers[0].Stale || o.qr.Answers[0].Source != "store" {
			t.Fatalf("member %d: status=%d answers=%+v, want a degraded 200 store answer", i, o.status, o.qr.Answers)
		}
	}
	waitCounter(t, s, &s.m.cancelAborts, 1)
}

// A poisoned query panics its batch: the batch splits, mates re-execute
// individually and succeed, the poisoned member 500s, and the server keeps
// serving.
func TestPanicIsolationSplitsBatch(t *testing.T) {
	const poison = int32(13)
	s, ts := newTestServer(t, nil)
	p := parkExecutors(t, s, func(batch []*job) {
		for _, j := range batch {
			for _, r := range j.roots {
				if r == poison {
					panic("poisoned query")
				}
			}
		}
	})
	mate := queryAsync(ts, QueryRequest{Roots: []int32{40}, DeadlineMs: 5000})
	bad := queryAsync(ts, QueryRequest{Roots: []int32{poison}, DeadlineMs: 5000})
	waitQueued(t, s, 2)
	p.releaseOne()
	mo, bo := recv(t, mate), recv(t, bad)
	if bo.status != 500 || bo.qr.Error == "" {
		t.Fatalf("poisoned query: status=%d err=%q, want 500", bo.status, bo.qr.Error)
	}
	if mo.status != 200 || mo.qr.Answers[0].Source != "fresh" {
		t.Fatalf("batch mate: status=%d answers=%+v, want fresh 200", mo.status, mo.qr.Answers)
	}
	// The whole-batch panic plus the poisoned member's singleton retry.
	if got := s.m.panics.Load(); got != 2 {
		t.Fatalf("panics=%d, want 2", got)
	}
	// The server survived: a followup query answers normally.
	if st, qr, _ := postQuery(t, ts, QueryRequest{Roots: []int32{41}, DeadlineMs: 5000}); st != 200 {
		t.Fatalf("server did not survive the panic: %d %s", st, qr.Error)
	}
}

// A backlog that formed while every executor was busy dispatches, with no
// timer, as natural batches in queue order: the plain jobs ahead of a
// what-if form one batch, the what-if runs alone, and the plain jobs behind
// it form the next. Every plain answer stays bit-equal to the store.
func TestNaturalBatchingCoalescesBacklog(t *testing.T) {
	s, ts := newTestServer(t, nil)
	type shape struct{ jobs, singletons int }
	var (
		mu     sync.Mutex
		shapes []shape
	)
	p := parkExecutors(t, s, func(batch []*job) {
		sh := shape{jobs: len(batch)}
		for _, j := range batch {
			if j.singleton() {
				sh.singletons++
			}
		}
		mu.Lock()
		shapes = append(shapes, sh)
		mu.Unlock()
	})
	before := s.Metrics()

	const whatIfRoot = int32(60)
	plain := []int32{3, 50, 77, 120, 150, 199}
	var outs []<-chan outcome
	for i, root := range plain {
		outs = append(outs, queryAsync(ts, QueryRequest{Roots: []int32{root}, DeadlineMs: 5000}))
		waitQueued(t, s, len(outs))
		if i == 2 {
			outs = append(outs, queryAsync(ts, QueryRequest{
				Roots: []int32{whatIfRoot}, DeadlineMs: 5000,
				Overrides: map[string][]float32{"60": {0, 0, 0, 0, 0, 0}},
			}))
			waitQueued(t, s, len(outs))
		}
	}
	p.releaseOne()

	store := s.Store()
	for i, ch := range outs {
		o := recv(t, ch)
		if o.status != 200 || len(o.qr.Answers) != 1 || o.qr.Answers[0].Source != "fresh" {
			t.Fatalf("job %d: status=%d answers=%+v, want one fresh answer", i, o.status, o.qr.Answers)
		}
		a := o.qr.Answers[0]
		if a.Node == whatIfRoot {
			if bitEqual(a.Logits, store.Logits.Row(int(whatIfRoot))) {
				t.Fatal("what-if override did not change its answer")
			}
			continue
		}
		if !bitEqual(a.Logits, store.Logits.Row(int(a.Node))) {
			t.Fatalf("node %d: fresh logits diverge from the store", a.Node)
		}
	}
	after := s.Metrics()
	if got := after.Batches - before.Batches; got != 3 {
		t.Fatalf("batches delta %d, want 3", got)
	}
	if got := after.BatchedJobs - before.BatchedJobs; got != int64(len(outs)) {
		t.Fatalf("batched_jobs delta %d, want %d", got, len(outs))
	}
	mu.Lock()
	defer mu.Unlock()
	want := []shape{{3, 0}, {1, 1}, {3, 0}}
	if len(shapes) != len(want) {
		t.Fatalf("batch shapes %+v, want %+v", shapes, want)
	}
	for i := range want {
		if shapes[i] != want[i] {
			t.Fatalf("batch shapes %+v, want %+v", shapes, want)
		}
	}
}

// Start runs one batch executor per GOMAXPROCS and they compute at once:
// parkExecutors returns only when every executor holds a batch inside
// execHook at the same time. /v1/stats reports the count, and a query that
// arrives while all of them are busy waits in the queue for the first free
// one.
func TestExecutorsRunConcurrently(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	if n == 1 {
		t.Skip("GOMAXPROCS=1 runs a single executor")
	}
	s, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.QueryExecutors != n {
		t.Fatalf("query_executors=%d, want GOMAXPROCS=%d", st.QueryExecutors, n)
	}

	p := parkExecutors(t, s, nil)
	ch := queryAsync(ts, QueryRequest{Roots: []int32{9}, DeadlineMs: 5000})
	waitQueued(t, s, 1)
	p.releaseOne()
	o := recv(t, ch)
	if o.status != 200 || o.qr.Answers[0].Source != "fresh" || !bitEqual(o.qr.Answers[0].Logits, s.Store().Logits.Row(9)) {
		t.Fatalf("query behind busy executors: status=%d answers=%+v", o.status, o.qr.Answers)
	}
}

// BenchmarkQueryOneRoot is one closed-loop client sending single-root
// /v1/query requests to an in-process server over loopback HTTP: ns/op is
// the full round trip, HTTP plus one k-hop induce-and-infer.
func BenchmarkQueryOneRoot(b *testing.B) {
	s, ts := newTestServer(b, nil)
	n := s.cfg.Graph.NumNodes
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if st, qr, _ := postQuery(b, ts, QueryRequest{Roots: []int32{int32(i % n)}, DeadlineMs: 5000}); st != 200 {
			b.Fatalf("query: %d %s", st, qr.Error)
		}
	}
}

// BenchmarkQuery16Roots is BenchmarkQueryOneRoot with 16 distinct roots per
// request: one closed-loop client, so each request is one batch and ns/op
// is the round trip of one 16-root k-hop induce-and-infer.
func BenchmarkQuery16Roots(b *testing.B) {
	s, ts := newTestServer(b, nil)
	n := s.cfg.Graph.NumNodes
	roots := make([]int32, 16)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		for j := range roots {
			roots[j] = int32((i*len(roots) + j) % n)
		}
		if st, qr, _ := postQuery(b, ts, QueryRequest{Roots: roots, DeadlineMs: 5000}); st != 200 {
			b.Fatalf("query: %d %s", st, qr.Error)
		}
	}
}

// /v1/stats exposes how much of each query pass depth pruning skipped:
// query_induced_rows grows by induced nodes x layers and
// query_applied_rows by the rows of depth <= L-k summed over layers k.
func TestQueryStatsCountPrunedRows(t *testing.T) {
	s, ts := newTestServer(t, nil)
	g, m := s.cfg.Graph, s.cfg.Model
	roots := []int32{4, 90, 161}
	before := s.Metrics()
	status, qr, _ := postQuery(t, ts, QueryRequest{Roots: roots, DeadlineMs: 5000})
	if status != 200 {
		t.Fatalf("query: %d %s", status, qr.Error)
	}
	after := s.Metrics()

	ind, err := graph.KHop(g, roots, graph.KHopOptions{Hops: m.NumLayers()}).Induce(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	layers := m.NumLayers()
	var applied int64
	for k := 1; k <= layers; k++ {
		for _, d := range ind.Depth {
			if int(d) <= layers-k {
				applied++
			}
		}
	}
	if got, want := after.QueryInducedRows-before.QueryInducedRows, int64(ind.G.NumNodes*layers); got != want {
		t.Fatalf("query_induced_rows delta %d, want %d", got, want)
	}
	if got := after.QueryAppliedRows - before.QueryAppliedRows; got != applied {
		t.Fatalf("query_applied_rows delta %d, want %d", got, applied)
	}
	if applied >= int64(ind.G.NumNodes*layers) {
		t.Fatalf("pruning skipped nothing: %d applied of %d induced rows", applied, ind.G.NumNodes*layers)
	}
}

// Cold-start and what-if queries run on the batched plane against a
// subgraph copy; the resident graph and store never change.
func TestColdStartAndWhatIf(t *testing.T) {
	s, ts := newTestServer(t, nil)
	g, m := s.cfg.Graph, s.cfg.Model

	nbrs := []int32{3, 17, 42}
	feats := []float32{0.5, -0.25, 0.125, 1, 0, -1}
	status, qr, _ := postQuery(t, ts, QueryRequest{
		DeadlineMs: 5000,
		ColdStart:  &ColdStartRequest{Features: feats, InNeighbors: nbrs},
	})
	if status != 200 {
		t.Fatalf("cold start: %d %s", status, qr.Error)
	}
	got := qr.Answers[len(qr.Answers)-1]
	if got.Node != -1 || got.Source != "fresh" {
		t.Fatalf("cold answer %+v", got)
	}
	// Oracle: the same virtual root computed directly.
	sub := graph.KHop(g, nbrs, graph.KHopOptions{Hops: m.NumLayers()})
	ind, err := sub.Induce(g, &graph.VirtualRoot{Features: feats, InNeighbors: nbrs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inference.RunInduced(m, ind, inference.Options{NumWorkers: s.cfg.QueryWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Logits, want.Logits.Row(int(ind.Virtual))) {
		t.Fatalf("cold-start logits %v != direct compute %v", got.Logits, want.Logits.Row(int(ind.Virtual)))
	}

	// What-if: zeroing a node's features must change its fresh answer...
	status, qr, _ = postQuery(t, ts, QueryRequest{
		Roots: []int32{55}, DeadlineMs: 5000,
		Overrides: map[string][]float32{"55": {0, 0, 0, 0, 0, 0}},
	})
	if status != 200 {
		t.Fatalf("what-if: %d %s", status, qr.Error)
	}
	if bitEqual(qr.Answers[0].Logits, s.Store().Logits.Row(55)) {
		t.Fatal("override did not change the answer")
	}
	// ...without perturbing the resident graph: a plain query afterwards
	// still matches the store bitwise.
	status, qr, _ = postQuery(t, ts, QueryRequest{Roots: []int32{55}, DeadlineMs: 5000})
	if status != 200 || !bitEqual(qr.Answers[0].Logits, s.Store().Logits.Row(55)) {
		t.Fatal("what-if leaked into the resident graph")
	}
}

// Readiness is gated on the store: a server that has not completed its
// first pass reports unready, and flips ready after Start.
func TestReadinessGatedOnStore(t *testing.T) {
	g, m := testFixture(t)
	s, err := New(Config{Model: m, Graph: g, Refresh: inference.Options{NumWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Ready(); ok {
		t.Fatal("ready before any pass completed")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz=%d before first pass, want 503", resp.StatusCode)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("readyz=%d after first pass, want 200", resp.StatusCode)
	}
}

// Chaos: a background refresh crashes twice mid-pass (checkpoint recovery
// inside the engine) while live queries keep answering; the refreshed store
// is bit-identical to the first epoch because recovery is exact. Pinned to
// the one-shot full-pass path (the incremental session skips recompute on an
// unchanged graph); TestMutateChaosDeltaRefresh covers the delta pass.
func TestChaosRefreshUnderLiveLoad(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Refresh = inference.Options{NumWorkers: 3, CheckpointEvery: 1}
		c.DisableIncremental = true
	})
	before := fetchLogits(t, ts)

	s.cfg.Refresh.Faults = &pregel.FaultPlan{Crashes: []pregel.Fault{
		{Superstep: 1, Point: pregel.FaultMidPipeline},
		{Superstep: 2, Point: pregel.FaultAtBarrier},
	}}
	if !s.TryRefreshAsync() {
		t.Fatal("refresh did not start")
	}
	// Queries must keep answering from the old epoch throughout.
	deadline := time.Now().Add(10 * time.Second)
	for s.m.refreshes.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("refresh never completed")
		}
		st, qr, _ := postQuery(t, ts, QueryRequest{Roots: []int32{8}, DeadlineMs: 2000})
		if st != 200 {
			t.Fatalf("query failed during chaos refresh: %d %s", st, qr.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/nodes/8")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("store lookup failed during chaos refresh: %v %d", err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	snap := s.Store()
	if snap.Epoch != 2 {
		t.Fatalf("epoch %d after refresh, want 2", snap.Epoch)
	}
	if snap.Stats.Recoveries != 2 {
		t.Fatalf("recoveries=%d, want 2 (both injected crashes)", snap.Stats.Recoveries)
	}
	after := fetchLogits(t, ts)
	if !bytes.Equal(before, after) {
		t.Fatal("store bytes changed across a crash-recovered refresh")
	}
	if s.m.refreshFailures.Load() != 0 {
		t.Fatal("refresh reported failures")
	}
}

func fetchLogits(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/logits")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("logits: %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty logits dump")
	}
	return b
}

// The server's full lifecycle — load, queries, degradation, refresh,
// shutdown — leaks no goroutines.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		g, m := testFixture(t)
		s, err := New(Config{
			Model: m, Graph: g,
			Refresh:      inference.Options{NumWorkers: 2},
			RefreshEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		for i := 0; i < 10; i++ {
			st, qr, _ := postQuery(t, ts, QueryRequest{Roots: []int32{int32(i)}, DeadlineMs: 2000})
			if st != 200 {
				t.Fatalf("query %d: %d %s", i, st, qr.Error)
			}
		}
		resp, err := http.Post(ts.URL+"/v1/refresh", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		s.Close()
	}()
	// A poll, not a wait on a seam: no hook observes a goroutine's exit.
	// The sleep orders nothing; the assertion is the count it converges to.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func postMutate(t *testing.T, ts *httptest.Server, body string) (int, MutateResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	defer resp.Body.Close()
	var mr MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("mutate response decode: %v", err)
	}
	return resp.StatusCode, mr
}

// logitsBytes encodes a matrix exactly the way /v1/logits streams the store,
// so oracle passes compare byte-for-byte against the HTTP dump.
func logitsBytes(m *tensor.Matrix) []byte {
	buf := make([]byte, 4*len(m.Data))
	for i, f := range m.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	return buf
}

// TestMutateDeltaRefreshBitIdenticalOverHTTP is the serving acceptance test
// of the incremental mode: two staged delta batches (feature rewrite, a new
// node wired both ways, an edge addition referencing the staged node, an
// edge removal) drain into one delta refresh whose /v1/logits bytes equal a
// from-scratch pass over the equivalently mutated graph — and the new node
// is immediately queryable, fresh and from the store.
func TestMutateDeltaRefreshBitIdenticalOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Refresh = inference.Options{NumWorkers: 3, DeltaCutover: 1.1}
	})
	if !s.Incremental() {
		t.Fatal("server not incremental")
	}
	g0 := s.cfg.Graph
	newID := int32(g0.NumNodes)
	srcs, dsts := g0.EdgeList()

	st, mr := postMutate(t, ts, fmt.Sprintf(
		`{"features":[{"node":3,"features":[1,0,-1,0.5,0,2]}],
		  "add_nodes":[{"features":[0.1,0.2,0.3,0.4,0.5,0.6]}],
		  "add_edges":[{"src":%d,"dst":7},{"src":7,"dst":%d}]}`, newID, newID))
	if st != 202 || mr.PendingDeltas != 1 {
		t.Fatalf("batch 1: status=%d resp=%+v", st, mr)
	}
	if len(mr.NewNodes) != 1 || mr.NewNodes[0] != newID {
		t.Fatalf("batch 1 new_nodes=%v, want [%d]", mr.NewNodes, newID)
	}
	// Batch 2 references the staged (not yet applied) node and removes a
	// real edge, then kicks the refresh.
	st, mr = postMutate(t, ts, fmt.Sprintf(
		`{"features":[{"node":%d,"features":[-1,-1,-1,1,1,1]}],
		  "add_edges":[{"src":5,"dst":%d}],
		  "remove_edges":[{"src":%d,"dst":%d}],
		  "refresh":true}`, newID, newID, srcs[0], dsts[0]))
	if st != 202 || mr.Refresh == "" {
		t.Fatalf("batch 2: status=%d resp=%+v", st, mr)
	}
	waitCounter(t, s, &s.m.refreshes, 2)

	snap := s.Store()
	if snap.Epoch != 2 || snap.RefreshKind != "delta" {
		t.Fatalf("epoch=%d kind=%q after mutate refresh, want 2/delta", snap.Epoch, snap.RefreshKind)
	}
	if snap.Graph.NumNodes != g0.NumNodes+1 {
		t.Fatalf("snapshot graph has %d nodes, want %d", snap.Graph.NumNodes, g0.NumNodes+1)
	}

	// Oracle: the same two deltas applied offline, computed from scratch.
	g1, _, err := graph.ApplyDelta(g0, graph.Delta{
		Features: []graph.FeatureUpdate{{Node: 3, Features: []float32{1, 0, -1, 0.5, 0, 2}}},
		AddNodes: []graph.NodeAdd{{Features: []float32{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}}},
		AddEdges: []graph.EdgeAdd{{Src: newID, Dst: 7}, {Src: 7, Dst: newID}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := graph.ApplyDelta(g1, graph.Delta{
		Features:    []graph.FeatureUpdate{{Node: newID, Features: []float32{-1, -1, -1, 1, 1, 1}}},
		AddEdges:    []graph.EdgeAdd{{Src: 5, Dst: newID}},
		RemoveEdges: []graph.EdgeKey{{Src: srcs[0], Dst: dsts[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inference.RunPregel(s.cfg.Model, g2, inference.Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/logits")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("logits: status=%d err=%v", resp.StatusCode, err)
	}
	if resp.Header.Get("X-Rows") != "201" {
		t.Fatalf("X-Rows=%q after node add, want 201", resp.Header.Get("X-Rows"))
	}
	if !bytes.Equal(got, logitsBytes(want.Logits)) {
		t.Fatal("delta-refreshed store bytes differ from a from-scratch pass over HTTP")
	}

	// The new node answers: store lookup and fresh k-hop compute agree.
	nresp, err := http.Get(ts.URL + fmt.Sprintf("/v1/nodes/%d", newID))
	if err != nil {
		t.Fatal(err)
	}
	var na Answer
	if err := json.NewDecoder(nresp.Body).Decode(&na); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != 200 || !bitEqual(na.Logits, want.Logits.Row(int(newID))) {
		t.Fatalf("new-node store lookup: status=%d answer=%+v", nresp.StatusCode, na)
	}
	qst, qr, _ := postQuery(t, ts, QueryRequest{Roots: []int32{newID}, DeadlineMs: 5000})
	if qst != 200 || qr.Answers[0].Source != "fresh" || !bitEqual(qr.Answers[0].Logits, want.Logits.Row(int(newID))) {
		t.Fatalf("new-node fresh query: status=%d answers=%+v", qst, qr.Answers)
	}

	// Stats surface the incremental observables.
	m := s.Metrics()
	if !m.Incremental || m.LastRefreshKind != "delta" || m.Mutations != 2 ||
		m.MutationsApplied != 2 || m.MutationsRejected != 0 || m.PendingDeltas != 0 {
		t.Fatalf("stats after delta refresh: %+v", m)
	}
	if m.LastRefreshMs < 0 {
		t.Fatalf("last_refresh_ms=%v", m.LastRefreshMs)
	}
	// One graph rebuild for the two-batch drain, and its cost is reported.
	if m.GraphRebuilds != 1 || m.LastDrainMs <= 0 {
		t.Fatalf("graph_rebuilds=%d last_drain_ms=%v after one two-batch drain, want 1 and > 0", m.GraphRebuilds, m.LastDrainMs)
	}
	// graph_rebuilds advances by exactly one per refresh that drained at
	// least one batch, however many it drained — and not at all otherwise.
	for round, batches := range []int{0, 1, 3, 0, 2} {
		before := s.Metrics().GraphRebuilds
		for b := 0; b < batches; b++ {
			body := fmt.Sprintf(`{"features":[{"node":%d,"features":[%d,0,0,0,0,1]}],"add_edges":[{"src":%d,"dst":%d}]}`,
				10+b, round, 20+round, 30+b)
			if st, _ := postMutate(t, ts, body); st != 202 {
				t.Fatalf("round %d batch %d: status %d", round, b, st)
			}
		}
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		want := before
		if batches > 0 {
			want++
		}
		if got := s.Metrics().GraphRebuilds; got != want {
			t.Fatalf("round %d drained %d batches: graph_rebuilds %d → %d, want %d", round, batches, before, got, want)
		}
	}
}

// TestMutateChaosDeltaRefresh arms worker crashes between refreshes: the
// injected faults fire inside the delta pass, checkpoint recovery restores
// the resident slabs, and the refreshed store still matches a from-scratch
// pass byte for byte over HTTP.
func TestMutateChaosDeltaRefresh(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Refresh = inference.Options{NumWorkers: 3, DeltaCutover: 1.1, CheckpointEvery: 1}
	})
	s.cfg.Refresh.Faults = &pregel.FaultPlan{Crashes: []pregel.Fault{
		{Superstep: 1, Point: pregel.FaultAtBarrier},
		{Superstep: 2, Point: pregel.FaultBeforeSuperstep},
	}}
	st, mr := postMutate(t, ts, `{"features":[{"node":8,"features":[2,2,2,-2,-2,-2]}],"refresh":true}`)
	if st != 202 {
		t.Fatalf("mutate: status=%d resp=%+v", st, mr)
	}
	waitCounter(t, s, &s.m.refreshes, 2)

	snap := s.Store()
	if snap.RefreshKind != "delta" {
		t.Fatalf("kind=%q, want delta", snap.RefreshKind)
	}
	if snap.Stats.Recoveries != 2 {
		t.Fatalf("recoveries=%d, want 2 (both injected crashes)", snap.Stats.Recoveries)
	}
	g1, _, err := graph.ApplyDelta(s.cfg.Graph, graph.Delta{
		Features: []graph.FeatureUpdate{{Node: 8, Features: []float32{2, 2, 2, -2, -2, -2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inference.RunPregel(s.cfg.Model, g1, inference.Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchLogits(t, ts), logitsBytes(want.Logits)) {
		t.Fatal("chaos delta refresh diverged from scratch over HTTP")
	}
}

// TestMutateRejections pins the mutation boundary: 409 when incremental mode
// is off, 400 for malformed batches (nothing staged), and a drain-order
// conflict — removing an edge an earlier staged batch already dropped —
// rejects only the conflicting batch while the pass applies the rest.
func TestMutateRejections(t *testing.T) {
	off, offTS := newTestServer(t, func(c *Config) { c.DisableIncremental = true })
	if off.Incremental() {
		t.Fatal("DisableIncremental ignored")
	}
	if st, mr := postMutate(t, offTS, `{"features":[{"node":1,"features":[0,0,0,0,0,0]}]}`); st != 409 || mr.Error == "" {
		t.Fatalf("disabled server: status=%d err=%q, want 409 with message", st, mr.Error)
	}

	s, ts := newTestServer(t, func(c *Config) {
		c.Refresh = inference.Options{NumWorkers: 3, DeltaCutover: 1.1}
	})
	for i, body := range []string{
		`{}`, // empty delta
		`{"features":[{"node":99999,"features":[0,0,0,0,0,0]}]}`, // node out of range
		`{"features":[{"node":1,"features":[1,2]}]}`,             // bad feature dim
		`{"add_edges":[{"src":0,"dst":99999}]}`,                  // edge endpoint out of range
		`{"remove_edges":[{"src":-1,"dst":0}]}`,                  // negative endpoint
		`{"add_edges":[{"src":0,"dst":1,"features":[1,2,3]}]}`,   // edge features on a featureless graph
		`{"add_nodes":[{"features":[1]}]}`,                       // new node bad dim
		`{"bogus":true}`,                                         // unknown field
		// A removal resolves against the graph before its batch: naming the
		// batch's own new node (id 200) is a batch the drain would reject, so
		// it must be refused here, before the ack and the WAL.
		`{"add_nodes":[{"features":[0,0,0,0,0,0]}],"add_edges":[{"src":200,"dst":1}],"remove_edges":[{"src":200,"dst":1}]}`,
	} {
		if st, mr := postMutate(t, ts, body); st != 400 || mr.Error == "" {
			t.Fatalf("case %d: status=%d err=%q, want 400 with message", i, st, mr.Error)
		}
	}
	if got := s.m.mutations.Load(); got != 0 {
		t.Fatalf("rejected bodies staged %d batches", got)
	}

	// Drain-order conflict: both batches remove the same edge.
	srcs, dsts := s.cfg.Graph.EdgeList()
	rm := fmt.Sprintf(`{"remove_edges":[{"src":%d,"dst":%d}]}`, srcs[0], dsts[0])
	if st, _ := postMutate(t, ts, rm); st != 202 {
		t.Fatalf("first removal: %d", st)
	}
	if st, _ := postMutate(t, ts, rm); st != 202 {
		t.Fatalf("second removal: %d", st)
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if a, r := s.m.mutationsApplied.Load(), s.m.mutationsRejected.Load(); a != 1 || r != 1 {
		t.Fatalf("applied=%d rejected=%d, want 1/1", a, r)
	}
	g1, _, err := graph.ApplyDelta(s.cfg.Graph, graph.Delta{RemoveEdges: []graph.EdgeKey{{Src: srcs[0], Dst: dsts[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inference.RunPregel(s.cfg.Model, g1, inference.Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchLogits(t, ts), logitsBytes(want.Logits)) {
		t.Fatal("store after a rejected batch diverged from the applied-only oracle")
	}
}

func waitCounter(t *testing.T, s *Server, c interface{ Load() int64 }, want int64) {
	t.Helper()
	waitFor(t, s, fmt.Sprintf("counter >= %d", want), func() bool { return c.Load() >= want })
}
