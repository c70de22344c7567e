package pregel

import (
	"fmt"
	"testing"

	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// The engine's tests all run one small program, testProg, whose fold
// depends on the order each inbox delivers its messages in, and check it
// against refRun: the same program simulated serially, straight from the
// graph. Every quantity is an integer well below 2^24, so float32 payloads
// carry it exactly and any divergence is a delivery bug, not rounding.

// Message kinds of testProg.
const (
	kindSum  uint8 = iota // combinable; folded by an order-free sum
	kindHash              // never combined; folded by an order-dependent hash
	kindLong              // vertex 0's payload longer than maxPage
	kindMail              // worker mail from vertex 0
)

const (
	valMod     = 9973
	combineCap = 8 // sumCombine declines a merge past this many messages
)

// testProg is the engine's test program. At superstep 0 each computed
// vertex takes an initial value; at superstep k it folds its inbox and the
// worker's mail into its previous value. While k < rounds it sends along every
// out-edge a kindSum payload (width floats) and then a kindHash payload,
// and vertex 0 mails every worker. Payloads are built in a per-worker
// scratch buffer that is scribbled over after each send, so a send that
// kept the caller's slice would corrupt delivery.
type testProg struct {
	g      *graph.Graph
	rounds int  // supersteps that send; a vertex computed at rounds or later halts
	width  int  // kindSum payload width; 0 means 2
	fan    bool // scatter with SendColumnarFan instead of per-edge SendColumnar
	halt   bool // every computed vertex halts, so only a message reactivates it
	long   int  // when > 0, vertex 0 also sends a kindLong payload this long to its first out-neighbor

	// Program-owned state, per worker by local index: the value and the
	// 1-based first superstep the vertex computed at (0: never).
	vals, first [][]int32
	scratch     [][]float32
	sawMail     []bool // worker saw vertex 0's superstep-0 mail
	restores    int
}

// newTestProg returns a copy of the options in p running over g, with
// fresh state for workers workers.
func newTestProg(g *graph.Graph, p testProg, workers int) *testProg {
	p.g = g
	p.vals = make([][]int32, workers)
	p.first = make([][]int32, workers)
	p.scratch = make([][]float32, workers)
	p.sawMail = make([]bool, workers)
	return &p
}

func (p *testProg) payWidth() int {
	if p.width == 0 {
		return 2
	}
	return p.width
}

func (p *testProg) ComputeBatch(ctx *BatchContext) {
	w, step := ctx.WorkerID(), ctx.Superstep
	owned := ctx.Owned()
	if step == 0 {
		p.vals[w] = make([]int32, len(owned))
		p.first[w] = make([]int32, len(owned))
	}
	mail := ctx.ColumnarWorkerMail()
	for i := 0; i < mail.Len(); i++ {
		if mail.Kinds[i] == kindMail && mail.Srcs[i] == 0 && len(mail.Payloads[i]) == 2 &&
			mail.Payloads[i][0] == 42 && mail.Payloads[i][1] == 43 {
			p.sawMail[w] = true
		}
	}
	h0 := mailTerm(mail)
	off, in := ctx.InboxCSR()
	var cost int64
	for li, v := range owned {
		if !ctx.Computed(li) {
			continue
		}
		if p.first[w][li] == 0 {
			p.first[w][li] = int32(step + 1)
		}
		if step == 0 {
			p.vals[w][li] = initVal(v)
		} else {
			p.vals[w][li] = (3*p.vals[w][li] + fold(in, off[li], off[li+1], h0)) % valMod
		}
		if step >= p.rounds || p.halt {
			ctx.Halt(li)
		}
		if step < p.rounds {
			cost += p.scatter(ctx, w, v, p.vals[w][li], step)
		}
	}
	ctx.AddCost(cost)
}

// scatter sends vertex v's messages for this superstep and returns the
// compute cost it charges: its out-degree.
func (p *testProg) scatter(ctx *BatchContext, w int, v, val int32, step int) int64 {
	dsts := p.g.OutNeighbors(v)
	send := func(kind uint8, pay []float32) {
		if p.fan {
			ctx.SendColumnarFan(dsts, kind, v, 1, pay)
		} else {
			for _, d := range dsts {
				ctx.SendColumnar(d, kind, v, 1, pay)
			}
		}
		scribble(pay)
	}
	send(kindSum, sumPayload(p.scratchBuf(w, p.payWidth()), val))
	send(kindHash, hashPayload(p.scratchBuf(w, 2), v, val))
	if p.long > 0 && v == 0 && len(dsts) > 0 {
		pay := longPayload(p.scratchBuf(w, p.long), val)
		ctx.SendColumnar(dsts[0], kindLong, v, 1, pay)
		scribble(pay)
	}
	if v == 0 {
		pay := mailPayload(p.scratchBuf(w, 2), step)
		for dw := range p.vals {
			ctx.SendColumnarToWorker(dw, kindMail, v, 0, pay)
		}
		scribble(pay)
	}
	return int64(len(dsts))
}

func (p *testProg) scratchBuf(w, n int) []float32 {
	if cap(p.scratch[w]) < n {
		p.scratch[w] = make([]float32, n)
	}
	return p.scratch[w][:n]
}

// SnapshotProgState implements ProgramStater.
func (p *testProg) SnapshotProgState() any {
	snap := make([][]int32, 2*len(p.vals))
	for w := range p.vals {
		snap[2*w] = append([]int32(nil), p.vals[w]...)
		snap[2*w+1] = append([]int32(nil), p.first[w]...)
	}
	return snap
}

// RestoreProgState implements ProgramStater.
func (p *testProg) RestoreProgState(snap any) {
	s := snap.([][]int32)
	for w := range p.vals {
		p.vals[w] = append([]int32(nil), s[2*w]...)
		p.first[w] = append([]int32(nil), s[2*w+1]...)
	}
	p.restores++
}

// values returns the program's per-vertex values and first-computed
// supersteps, indexed by vertex id.
func (p *testProg) values(e *Engine) (vals, first []int32) {
	n := p.g.NumNodes
	vals, first = make([]int32, n), make([]int32, n)
	for v := int32(0); int(v) < n; v++ {
		w, li := e.part.WorkerFor(v), e.part.LocalIndex(v)
		vals[v], first[v] = p.vals[w][li], p.first[w][li]
	}
	return vals, first
}

func initVal(v int32) int32 { return v%7 + 1 }

// fold is the inbox fold: kindSum rows add up (combining may merge them),
// every other row feeds a hash whose result depends on the order the rows
// arrive in. h0 seeds the hash with the worker's mail.
func fold(in Batch, lo, hi, h0 int32) int32 {
	sum, h := int64(0), int64(h0)
	for i := lo; i < hi; i++ {
		pay := in.Payloads[i]
		if in.Kinds[i] == kindSum {
			sum += int64(pay[0]) + int64(in.Counts[i])
			continue
		}
		h = (h*31 + int64(in.Srcs[i])*7 + int64(pay[0]) + int64(len(pay))) % valMod
	}
	return int32((sum + h) % valMod)
}

// mailTerm hashes a worker's mailbox in delivery order.
func mailTerm(mail Batch) int32 {
	h := int64(0)
	for i := 0; i < mail.Len(); i++ {
		h = (h*31 + int64(mail.Payloads[i][0]) + int64(mail.Payloads[i][1])) % valMod
	}
	return int32(h)
}

func sumPayload(buf []float32, val int32) []float32 {
	for j := range buf {
		buf[j] = float32(val) + float32(j)
	}
	return buf
}

func hashPayload(buf []float32, v, val int32) []float32 {
	buf[0], buf[1] = float32(val), float32(v)
	return buf
}

func longPayload(buf []float32, val int32) []float32 {
	for j := range buf {
		buf[j] = float32(val)
	}
	return buf
}

func mailPayload(buf []float32, step int) []float32 {
	buf[0], buf[1] = 42, float32(43+step)
	return buf
}

func scribble(pay []float32) {
	for i := range pay {
		pay[i] = -1
	}
}

// sumCombine folds kindSum payloads elementwise, declining once the merged
// row would carry more than combineCap messages.
func sumCombine(kind uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	if kind != kindSum || accCount+payCount > combineCap {
		return 0, false
	}
	for i, x := range pay {
		acc[i] += x
	}
	return accCount + payCount, true
}

// refResult is what refRun computes.
type refResult struct {
	vals, first []int32
	steps       int
	// sent counts the messages sent before combining by (kind, payload
	// length); worker mail counts once per receiving worker.
	sent map[[2]int]int64
	// Per superstep: the vertices computed, the messages sent before
	// combining, and the compute cost charged.
	stepActive []int
	stepSent   []int64
	stepCost   []int64
}

// msgs returns the reference's message total.
func (r refResult) msgs() int64 {
	var n int64
	for _, c := range r.sent {
		n += c
	}
	return n
}

// bytes prices the reference's messages with a Config.Bytes function.
func (r refResult) bytes(price func(kind uint8, payloadLen int) int) int64 {
	var n int64
	for k, c := range r.sent {
		n += c * int64(price(uint8(k[0]), k[1]))
	}
	return n
}

// refRun runs the program in p serially: one inbox per vertex, filled in
// ascending source order and emission order within a source — the
// delivery order the engine promises. frontier and maxSteps mean what
// they mean in Config; workers only sets how many mail rows are counted.
func refRun(g *graph.Graph, p testProg, frontier []int32, maxSteps, workers int) refResult {
	n := g.NumNodes
	res := refResult{vals: make([]int32, n), first: make([]int32, n), sent: map[[2]int]int64{}}
	active := make([]bool, n)
	if frontier == nil {
		for v := range active {
			active[v] = true
		}
	}
	for _, v := range frontier {
		active[v] = true
	}
	inbox := make([]Batch, n)
	var mail Batch
	push := func(b *Batch, kind uint8, src, count int32, pay []float32) {
		b.Kinds = append(b.Kinds, kind)
		b.Srcs = append(b.Srcs, src)
		b.Counts = append(b.Counts, count)
		b.Payloads = append(b.Payloads, append([]float32(nil), pay...))
	}
	for step := 0; step < maxSteps; step++ {
		live := mail.Len() > 0
		for v := 0; v < n && !live; v++ {
			live = active[v] || inbox[v].Len() > 0
		}
		if !live {
			break
		}
		res.steps = step + 1
		next := make([]Batch, n)
		var nextMail Batch
		h0 := mailTerm(mail)
		var stepActive int
		var stepSent, stepCost int64
		count := func(kind uint8, payLen int, msgs int64) {
			res.sent[[2]int{int(kind), payLen}] += msgs
			stepSent += msgs
		}
		for v := int32(0); int(v) < n; v++ {
			if !active[v] && inbox[v].Len() == 0 {
				continue
			}
			stepActive++
			if res.first[v] == 0 {
				res.first[v] = int32(step + 1)
			}
			if step == 0 {
				res.vals[v] = initVal(v)
			} else {
				res.vals[v] = (3*res.vals[v] + fold(inbox[v], 0, int32(inbox[v].Len()), h0)) % valMod
			}
			active[v] = step < p.rounds && !p.halt
			if step >= p.rounds {
				continue
			}
			dsts := g.OutNeighbors(v)
			stepCost += int64(len(dsts))
			send := func(kind uint8, pay []float32) {
				for _, d := range dsts {
					push(&next[d], kind, v, 1, pay)
				}
				count(kind, len(pay), int64(len(dsts)))
			}
			send(kindSum, sumPayload(make([]float32, p.payWidth()), res.vals[v]))
			send(kindHash, hashPayload(make([]float32, 2), v, res.vals[v]))
			if p.long > 0 && v == 0 && len(dsts) > 0 {
				push(&next[dsts[0]], kindLong, v, 1, longPayload(make([]float32, p.long), res.vals[v]))
				count(kindLong, p.long, 1)
			}
			if v == 0 {
				push(&nextMail, kindMail, v, 0, mailPayload(make([]float32, 2), step))
				count(kindMail, 2, int64(workers))
			}
		}
		res.stepActive = append(res.stepActive, stepActive)
		res.stepSent = append(res.stepSent, stepSent)
		res.stepCost = append(res.stepCost, stepCost)
		inbox, mail = next, nextMail
	}
	return res
}

// newProgEngine builds an engine running a fresh copy of p over g.
func newProgEngine(g *graph.Graph, p testProg, cfg Config) (*Engine, *testProg) {
	prog := newTestProg(g, p, cfg.NumWorkers)
	return NewEngine(g, prog, cfg), prog
}

// runProg runs a fresh copy of p over g and returns the engine and the
// program's per-vertex values.
func runProg(t testing.TB, g *graph.Graph, p testProg, cfg Config) (*Engine, []int32) {
	t.Helper()
	eng, prog := newProgEngine(g, p, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	vals, _ := prog.values(eng)
	return eng, vals
}

// checkRef fails the test unless the run's values, first-computed
// supersteps and superstep count match the serial reference.
func checkRef(t *testing.T, name string, eng *Engine, prog *testProg, ref refResult) {
	t.Helper()
	vals, first := prog.values(eng)
	for v := range ref.vals {
		if vals[v] != ref.vals[v] || first[v] != ref.first[v] {
			t.Fatalf("%s: vertex %d = (value %d, first %d), reference (%d, %d)",
				name, v, vals[v], first[v], ref.vals[v], ref.first[v])
		}
	}
	if eng.Supersteps() != ref.steps {
		t.Fatalf("%s: %d supersteps, reference %d", name, eng.Supersteps(), ref.steps)
	}
}

func sumMetrics(eng *Engine) (total StepMetrics) {
	for _, m := range eng.TotalMetrics() {
		total.ActiveVertices += m.ActiveVertices
		total.MessagesSent += m.MessagesSent
		total.MessagesReceived += m.MessagesReceived
		total.BytesSent += m.BytesSent
		total.BytesReceived += m.BytesReceived
		total.RemoteMessagesSent += m.RemoteMessagesSent
		total.RemoteBytesSent += m.RemoteBytesSent
		total.CombinedAway += m.CombinedAway
		total.ComputeCost += m.ComputeCost
	}
	return total
}

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n), nil)
	}
	return b.Build()
}

func randomGraph(n, e int, seed int64) *graph.Graph {
	rng := tensor.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < e; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), nil)
	}
	return b.Build()
}

// starGraph builds a hub-at-0 star over n vertices.
func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(v, 0, nil)
	}
	return b.Build()
}

// TestProgramMatchesSerialReference is the engine's end-to-end check:
// values, first-computed supersteps and message totals equal the serial
// reference at every worker count, serial and parallel, under hash and LDG
// placement, with and without combining.
func TestProgramMatchesSerialReference(t *testing.T) {
	g := randomGraph(80, 400, 11)
	p := testProg{rounds: 4}
	for _, workers := range []int{1, 2, 3, 8} {
		ref := refRun(g, p, nil, 64, workers)
		for _, parallel := range []bool{false, true} {
			for placement, part := range map[string]graph.Partitioner{"hash": nil, "ldg": graph.LDG{}.Partition(g, workers)} {
				for _, combine := range []bool{false, true} {
					name := placement
					cfg := Config{NumWorkers: workers, Parallel: parallel, Partitioner: part}
					if combine {
						cfg.Combine = sumCombine
						name += "+combine"
					}
					eng, prog := newProgEngine(g, p, cfg)
					if err := eng.Run(); err != nil {
						t.Fatal(err)
					}
					checkRef(t, name, eng, prog, ref)
					m := sumMetrics(eng)
					if m.MessagesSent+m.CombinedAway != ref.msgs() || m.MessagesReceived != m.MessagesSent {
						t.Fatalf("%s workers=%d parallel=%v: sent %d + combined %d, received %d; reference sent %d",
							name, workers, parallel, m.MessagesSent, m.CombinedAway, m.MessagesReceived, ref.msgs())
					}
					if combine != (m.CombinedAway > 0) {
						t.Fatalf("%s workers=%d parallel=%v: %d messages combined", name, workers, parallel, m.CombinedAway)
					}
				}
			}
		}
	}
}

// TestBatchedMatchesPerVertex: one ComputeBatch call per worker is a pure
// dispatch change. Superstep by superstep, the vertices computed, the
// messages sent and combined away, and the compute cost charged equal a
// serial execution that computes one vertex at a time — at every worker
// count, serial and parallel, with and without combining, while halted
// vertices wake only on messages.
func TestBatchedMatchesPerVertex(t *testing.T) {
	g := randomGraph(60, 240, 11)
	p := testProg{rounds: 4, halt: true}
	for _, workers := range []int{1, 2, 4, 8} {
		ref := refRun(g, p, nil, 64, workers)
		for _, combine := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				cfg := Config{NumWorkers: workers, Parallel: parallel}
				if combine {
					cfg.Combine = sumCombine
				}
				eng, prog := newProgEngine(g, p, cfg)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("workers=%d combine=%v parallel=%v", workers, combine, parallel)
				checkRef(t, name, eng, prog, ref)
				var prevSent int64
				for step, ms := range eng.Metrics() {
					var active int
					var sent, combined, received, cost int64
					for _, m := range ms {
						active += m.ActiveVertices
						sent += m.MessagesSent
						combined += m.CombinedAway
						received += m.MessagesReceived
						cost += m.ComputeCost
					}
					if active != ref.stepActive[step] || sent+combined != ref.stepSent[step] || cost != ref.stepCost[step] {
						t.Fatalf("%s: superstep %d computed %d, sent %d + combined %d, cost %d; per-vertex %d, %d, %d",
							name, step, active, sent, combined, cost, ref.stepActive[step], ref.stepSent[step], ref.stepCost[step])
					}
					if received != prevSent {
						t.Fatalf("%s: superstep %d received %d, superstep %d sent %d", name, step, received, step-1, prevSent)
					}
					prevSent = sent
				}
			}
		}
	}
}
