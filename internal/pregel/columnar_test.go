package pregel

import (
	"testing"

	"inferturbo/internal/graph"
)

// Plane-equivalence programs: the same integer-valued computation expressed
// once over boxed [3]float32 messages and once over the columnar plane.
// Payload layout is [value, srcID, count]; every quantity stays an integer
// well below 2^24, so float32 arithmetic is exact and any divergence
// between the planes (or across worker counts) is a real delivery bug, not
// rounding.

const sumMod = 9973

type boxedSumProg struct{ rounds int }

func (p *boxedSumProg) Compute(ctx *Context[float32, [3]float32], msgs [][3]float32) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%7 + 1)
	} else {
		var s float32
		for _, m := range msgs {
			s += m[0] + m[2]
		}
		*ctx.Value = float32(int(s) % sumMod)
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	for _, d := range dsts {
		ctx.SendMessage(d, [3]float32{*ctx.Value, float32(ctx.ID), 1})
	}
}

func boxedSumCombiner(a, b [3]float32) ([3]float32, bool) {
	return [3]float32{a[0] + b[0], a[1] + b[1], a[2] + b[2]}, true
}

type colSumProg struct{ rounds int }

func (p *colSumProg) Compute(ctx *Context[float32, [3]float32], _ [][3]float32) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%7 + 1)
	} else {
		in := ctx.ColumnarInbox()
		var s float32
		for i := 0; i < in.Len(); i++ {
			s += in.Payloads[i][0] + in.Payloads[i][2]
		}
		*ctx.Value = float32(int(s) % sumMod)
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	pay := [3]float32{*ctx.Value, float32(ctx.ID), 1}
	for _, d := range dsts {
		ctx.SendColumnar(d, 0, ctx.ID, 1, pay[:])
	}
}

func colSumCombiner(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	for i, v := range pay {
		acc[i] += v
	}
	return accCount + payCount, true
}

func runBoxedSum(t *testing.T, topo Topology, workers int, combine, parallel bool) (*Engine[float32, [3]float32], []float32) {
	t.Helper()
	cfg := Config[[3]float32]{
		NumWorkers:   workers,
		Parallel:     parallel,
		MessageBytes: func(m [3]float32) int { return 4*len(m) + 16 },
	}
	if combine {
		cfg.Combiner = boxedSumCombiner
	}
	eng := NewEngine[float32, [3]float32](topo, &boxedSumProg{rounds: 4}, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, append([]float32(nil), eng.Values()...)
}

func runColSum(t *testing.T, topo Topology, workers int, combine, parallel bool) (*Engine[float32, [3]float32], []float32) {
	t.Helper()
	ops := &ColumnarOps{}
	if combine {
		ops.Combine = colSumCombiner
	}
	cfg := Config[[3]float32]{NumWorkers: workers, Parallel: parallel, Columnar: ops}
	eng := NewEngine[float32, [3]float32](topo, &colSumProg{rounds: 4}, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, append([]float32(nil), eng.Values()...)
}

// TestColumnarMatchesBoxed: the tentpole invariant — the columnar plane is
// a pure transport change. Values, message counts, wire bytes and combine
// counts must all be bit-identical to the boxed plane at every worker
// count, serial and parallel, with and without combining. (The default
// columnar Bytes — 4*len+16 — matches the boxed MessageBytes above.)
func TestColumnarMatchesBoxed(t *testing.T) {
	topo := randomTopology(t, 60, 240, 11)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, combine := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				be, bv := runBoxedSum(t, topo, workers, combine, parallel)
				ce, cv := runColSum(t, topo, workers, combine, parallel)
				for v := range bv {
					if bv[v] != cv[v] {
						t.Fatalf("workers=%d combine=%v parallel=%v: value[%d] boxed %v columnar %v",
							workers, combine, parallel, v, bv[v], cv[v])
					}
				}
				bm, cm := be.TotalMetrics(), ce.TotalMetrics()
				for w := range bm {
					if bm[w].MessagesSent != cm[w].MessagesSent ||
						bm[w].MessagesReceived != cm[w].MessagesReceived ||
						bm[w].BytesSent != cm[w].BytesSent ||
						bm[w].BytesReceived != cm[w].BytesReceived ||
						bm[w].CombinedAway != cm[w].CombinedAway {
						t.Fatalf("workers=%d combine=%v parallel=%v: worker %d metrics diverge:\nboxed    %+v\ncolumnar %+v",
							workers, combine, parallel, w, bm[w], cm[w])
					}
				}
			}
		}
	}
}

// TestColumnarWorkerCountInvariant: integer-exact combining means results
// must not depend on how vertices are partitioned.
func TestColumnarWorkerCountInvariant(t *testing.T) {
	topo := randomTopology(t, 80, 400, 12)
	_, ref := runColSum(t, topo, 1, true, false)
	for _, workers := range []int{2, 3, 5, 8} {
		_, got := runColSum(t, topo, workers, true, true)
		for v := range ref {
			if ref[v] != got[v] {
				t.Fatalf("workers=%d changed value[%d]: %v vs %v", workers, v, got[v], ref[v])
			}
		}
	}
}

// orderProg records the source order in which vertex 0 receives messages.
type orderProgBoxed struct{ got []int32 }

func (p *orderProgBoxed) Compute(ctx *Context[int, [3]float32], msgs [][3]float32) {
	switch ctx.Superstep {
	case 0:
		for s := int32(0); s < 3; s++ { // every vertex sends 3 messages to vertex 0
			ctx.SendMessage(0, [3]float32{float32(ctx.ID), float32(s), 0})
		}
	case 1:
		if ctx.ID == 0 {
			for _, m := range msgs {
				p.got = append(p.got, int32(m[0])*4+int32(m[1]))
			}
		}
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

type orderProgCol struct{ got []int32 }

func (p *orderProgCol) Compute(ctx *Context[int, [3]float32], _ [][3]float32) {
	switch ctx.Superstep {
	case 0:
		for s := int32(0); s < 3; s++ {
			ctx.SendColumnar(0, 0, ctx.ID, s, []float32{float32(ctx.ID), float32(s), 0})
		}
	case 1:
		if ctx.ID == 0 {
			in := ctx.ColumnarInbox()
			for i := 0; i < in.Len(); i++ {
				p.got = append(p.got, in.Srcs[i]*4+in.Counts[i])
			}
		}
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

// TestColumnarDeliveryOrderMatchesBoxed: per-destination message order is
// part of the engine contract (globally ascending source id, emission order
// within a source); the columnar barrier must reproduce the boxed order
// exactly, parallel delivery included.
func TestColumnarDeliveryOrderMatchesBoxed(t *testing.T) {
	topo := ringTopology(t, 13)
	for _, workers := range []int{1, 2, 4, 5} {
		bp := &orderProgBoxed{}
		be := NewEngine[int, [3]float32](topo, bp, Config[[3]float32]{NumWorkers: workers, MaxSupersteps: 4})
		if err := be.Run(); err != nil {
			t.Fatal(err)
		}
		cp := &orderProgCol{}
		ce := NewEngine[int, [3]float32](topo, cp, Config[[3]float32]{
			NumWorkers: workers, MaxSupersteps: 4, Parallel: true, Columnar: &ColumnarOps{},
		})
		if err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		if len(bp.got) != len(cp.got) || len(bp.got) != 13*3 {
			t.Fatalf("workers=%d: boxed received %d, columnar %d, want %d", workers, len(bp.got), len(cp.got), 13*3)
		}
		for i := range bp.got {
			if bp.got[i] != cp.got[i] {
				t.Fatalf("workers=%d: delivery order diverges at %d: boxed %v columnar %v",
					workers, i, bp.got, cp.got)
			}
		}
	}
}

// mailProg exercises columnar worker mailboxes.
type mailProg struct {
	sawMail []bool // indexed by worker id
}

func (p *mailProg) Compute(ctx *Context[int, [3]float32], _ [][3]float32) {
	switch ctx.Superstep {
	case 0:
		if ctx.ID == 0 {
			for w := 0; w < ctx.NumWorkers(); w++ {
				ctx.SendColumnarToWorker(w, 7, ctx.ID, 0, []float32{42, 43})
			}
		}
	case 1:
		mail := ctx.ColumnarWorkerMail()
		for i := 0; i < mail.Len(); i++ {
			if mail.Kinds[i] == 7 && mail.Srcs[i] == 0 &&
				len(mail.Payloads[i]) == 2 && mail.Payloads[i][0] == 42 && mail.Payloads[i][1] == 43 {
				p.sawMail[ctx.WorkerID()] = true
			}
		}
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

func TestColumnarWorkerMailDelivered(t *testing.T) {
	topo := ringTopology(t, 9)
	prog := &mailProg{sawMail: make([]bool, 3)}
	eng := NewEngine[int, [3]float32](topo, prog, Config[[3]float32]{
		NumWorkers: 3, MaxSupersteps: 4, Columnar: &ColumnarOps{},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for w, saw := range prog.sawMail {
		if !saw {
			t.Fatalf("worker %d never saw its mailbox payload", w)
		}
	}
	var received int64
	for _, m := range eng.TotalMetrics() {
		received += m.MessagesReceived
	}
	if received < 3 {
		t.Fatalf("worker mail not accounted: received=%d", received)
	}
}

// TestColumnarCombinerReducesTraffic mirrors the boxed combiner test on the
// columnar plane: a star graph where each sending worker's messages for the
// hub merge in place into one payload view.
func TestColumnarCombinerReducesTraffic(t *testing.T) {
	b := starTopologyBuilder(101)
	run := func(combine bool) (values []float32, sent, combined int64) {
		ops := &ColumnarOps{}
		if combine {
			ops.Combine = colSumCombiner
		}
		eng := NewEngine[float32, [3]float32](b, &colSumProg{rounds: 2}, Config[[3]float32]{
			NumWorkers: 4, Columnar: ops,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for _, m := range eng.TotalMetrics() {
			sent += m.MessagesSent
			combined += m.CombinedAway
		}
		return append([]float32(nil), eng.Values()...), sent, combined
	}
	plainVals, plainSent, _ := run(false)
	combVals, combSent, combined := run(true)
	if combSent >= plainSent {
		t.Fatalf("combiner did not reduce traffic: %d vs %d", combSent, plainSent)
	}
	if combined == 0 {
		t.Fatal("combiner merges not counted")
	}
	for v := range plainVals {
		if plainVals[v] != combVals[v] {
			t.Fatalf("combining changed value[%d]: %v vs %v", v, combVals[v], plainVals[v])
		}
	}
}

// TestColumnarBytesAccounting: a custom Bytes function sees the kind byte
// and the true payload length of every message.
func TestColumnarBytesAccounting(t *testing.T) {
	topo := ringTopology(t, 6)
	prog := progFunc[int, [3]float32](func(ctx *Context[int, [3]float32], _ [][3]float32) {
		if ctx.Superstep == 0 {
			dsts, _ := ctx.OutEdges()
			for _, d := range dsts {
				ctx.SendColumnar(d, 1, ctx.ID, 0, nil)             // a reference: 12 bytes
				ctx.SendColumnar(d, 0, ctx.ID, 1, []float32{1, 2}) // a payload: 4*2+16
			}
		}
		ctx.VoteToHalt()
	})
	eng := NewEngine[int, [3]float32](topo, prog, Config[[3]float32]{
		NumWorkers: 2, MaxSupersteps: 3,
		Columnar: &ColumnarOps{Bytes: func(kind uint8, payloadLen int) int {
			if kind == 1 {
				return 12
			}
			return 4*payloadLen + 16
		}},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sentMsgs, sentBytes int64
	for _, m := range eng.TotalMetrics() {
		sentMsgs += m.MessagesSent
		sentBytes += m.BytesSent
	}
	if sentMsgs != 12 {
		t.Fatalf("sent %d messages, want 12", sentMsgs)
	}
	if want := int64(6*12 + 6*24); sentBytes != want {
		t.Fatalf("sent bytes = %d, want %d", sentBytes, want)
	}
}

// TestPlaneMisuse: crossing the planes is a programming error the engine
// reports immediately.
func TestPlaneMisuse(t *testing.T) {
	topo := ringTopology(t, 4)
	expectPanic := func(name string, prog VertexProgram[int, [3]float32], col *ColumnarOps) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		eng := NewEngine[int, [3]float32](topo, prog, Config[[3]float32]{NumWorkers: 2, Columnar: col})
		_ = eng.Run()
	}
	expectPanic("SendMessage on columnar", progFunc[int, [3]float32](func(ctx *Context[int, [3]float32], _ [][3]float32) {
		ctx.SendMessage(0, [3]float32{})
	}), &ColumnarOps{})
	expectPanic("SendColumnar on boxed", progFunc[int, [3]float32](func(ctx *Context[int, [3]float32], _ [][3]float32) {
		ctx.SendColumnar(0, 0, ctx.ID, 1, []float32{1})
	}), nil)
	expectPanic("ColumnarInbox on boxed", progFunc[int, [3]float32](func(ctx *Context[int, [3]float32], _ [][3]float32) {
		ctx.ColumnarInbox()
	}), nil)
}

// starTopologyBuilder builds a hub-at-0 star over n vertices.
func starTopologyBuilder(n int) Topology {
	b := graph.NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(v, 0, nil)
	}
	return GraphTopology{G: b.Build()}
}

// colFanProg is colSumProg scattering through SendColumnarFan — the
// broadcast-safe fan path that stores each payload once per destination
// worker and aliases that view for the rest.
type colFanProg struct{ rounds int }

func (p *colFanProg) Compute(ctx *Context[float32, [3]float32], _ [][3]float32) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%7 + 1)
	} else {
		in := ctx.ColumnarInbox()
		var s float32
		for i := 0; i < in.Len(); i++ {
			s += in.Payloads[i][0] + in.Payloads[i][2]
		}
		*ctx.Value = float32(int(s) % sumMod)
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	pay := [3]float32{*ctx.Value, float32(ctx.ID), 1}
	ctx.SendColumnarFan(dsts, 0, ctx.ID, 1, pay[:])
}

// TestColumnarFanMatchesPerEdgeSends: fanning one payload along every
// out-edge must be indistinguishable from issuing individual SendColumnar
// calls — values, traffic accounting and combine counts — at every worker
// count, with and without combining, including on a hub-heavy star where
// extents are maximally aliased and the combiner must copy-on-merge instead
// of folding into a shared extent.
func TestColumnarFanMatchesPerEdgeSends(t *testing.T) {
	for _, topo := range []Topology{
		randomTopology(t, 60, 240, 19),
		starTopologyBuilder(40),
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, combine := range []bool{false, true} {
				for _, parallel := range []bool{false, true} {
					ce, cv := runColSum(t, topo, workers, combine, parallel)
					ops := &ColumnarOps{}
					if combine {
						ops.Combine = colSumCombiner
					}
					fe := NewEngine[float32, [3]float32](topo, &colFanProg{rounds: 4},
						Config[[3]float32]{NumWorkers: workers, Parallel: parallel, Columnar: ops})
					if err := fe.Run(); err != nil {
						t.Fatal(err)
					}
					for v := range cv {
						if cv[v] != fe.Values()[v] {
							t.Fatalf("workers=%d combine=%v parallel=%v: value[%d] per-edge %v fan %v",
								workers, combine, parallel, v, cv[v], fe.Values()[v])
						}
					}
					cm, fm := ce.TotalMetrics(), fe.TotalMetrics()
					for w := range cm {
						if cm[w] != fm[w] {
							t.Fatalf("workers=%d combine=%v parallel=%v: worker %d metrics diverge:\nper-edge %+v\nfan      %+v",
								workers, combine, parallel, w, cm[w], fm[w])
						}
					}
				}
			}
		}
	}
}

// TestColumnarFanMultiEdge: duplicate destinations inside one fan must see
// the pristine payload for every appended copy even after a combine has
// folded into the first row — the copy-on-merge materialization at work.
func TestColumnarFanMultiEdge(t *testing.T) {
	b := graph.NewBuilder(3)
	// Vertex 0 sends to 1 three times and 2 once; with combining, rows for
	// dst 1 merge while dst 2's alias must keep reading the original value.
	b.AddEdge(0, 1, nil)
	b.AddEdge(0, 1, nil)
	b.AddEdge(0, 2, nil)
	b.AddEdge(0, 1, nil)
	topo := GraphTopology{G: b.Build()}
	for _, combine := range []bool{false, true} {
		ce, cv := runColSum(t, topo, 2, combine, false)
		ops := &ColumnarOps{}
		if combine {
			ops.Combine = colSumCombiner
		}
		fe := NewEngine[float32, [3]float32](topo, &colFanProg{rounds: 4},
			Config[[3]float32]{NumWorkers: 2, Columnar: ops})
		if err := fe.Run(); err != nil {
			t.Fatal(err)
		}
		for v := range cv {
			if cv[v] != fe.Values()[v] {
				t.Fatalf("combine=%v: value[%d] per-edge %v fan %v", combine, v, cv[v], fe.Values()[v])
			}
		}
		cm, fm := ce.TotalMetrics(), fe.TotalMetrics()
		for w := range cm {
			if cm[w] != fm[w] {
				t.Fatalf("combine=%v: worker %d metrics diverge", combine, w)
			}
		}
	}
}
