package pregel

import (
	"testing"

	"inferturbo/internal/graph"
)

// TestColumnarWorkerCountInvariant: integer-exact combining means results
// must not depend on how vertices are partitioned.
func TestColumnarWorkerCountInvariant(t *testing.T) {
	g := randomGraph(80, 400, 12)
	p := testProg{rounds: 4}
	_, ref := runProg(t, g, p, Config{NumWorkers: 1, Combine: sumCombine})
	for _, workers := range []int{2, 3, 5, 8} {
		_, got := runProg(t, g, p, Config{NumWorkers: workers, Combine: sumCombine, Parallel: true})
		for v := range ref {
			if ref[v] != got[v] {
				t.Fatalf("workers=%d changed value[%d]: %v vs %v", workers, v, got[v], ref[v])
			}
		}
	}
}

func TestColumnarWorkerMailDelivered(t *testing.T) {
	eng, prog := newProgEngine(ringGraph(9), testProg{rounds: 1}, Config{NumWorkers: 3, MaxSupersteps: 4})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for w, saw := range prog.sawMail {
		if !saw {
			t.Fatalf("worker %d never saw its mailbox payload", w)
		}
	}
	var received int64
	for _, m := range eng.Metrics()[1] {
		received += m.MessagesReceived
	}
	// Superstep 1 receives the ring's two messages per vertex plus one
	// mail row per worker.
	if received != 9*2+3 {
		t.Fatalf("worker mail not accounted: received=%d", received)
	}
}

// TestColumnarBytesAccounting: a custom Bytes function sees the kind byte
// and the true payload length of every message.
func TestColumnarBytesAccounting(t *testing.T) {
	g := ringGraph(6)
	p := testProg{rounds: 1, width: 5}
	price := func(kind uint8, payloadLen int) int {
		if kind == kindHash {
			return 12
		}
		return 4*payloadLen + 16
	}
	eng, _ := runProg(t, g, p, Config{NumWorkers: 2, MaxSupersteps: 3, Bytes: price})
	m := sumMetrics(eng)
	// Six vertices send one kindSum and one kindHash message each, and
	// vertex 0 mails both workers.
	if m.MessagesSent != 14 {
		t.Fatalf("sent %d messages, want 14", m.MessagesSent)
	}
	if want := int64(6*(4*5+16) + 6*12 + 2*(4*2+16)); m.BytesSent != want {
		t.Fatalf("sent bytes = %d, want %d", m.BytesSent, want)
	}
}

// TestColumnarFanMatchesPerEdgeSends: fanning one payload along every
// out-edge must be indistinguishable from issuing individual SendColumnar
// calls — values, traffic accounting and combine counts — at every worker
// count, with and without combining, including on a hub-heavy star where
// extents are maximally aliased and the combiner must copy-on-merge instead
// of folding into a shared extent.
func TestColumnarFanMatchesPerEdgeSends(t *testing.T) {
	for _, g := range []*graph.Graph{randomGraph(60, 240, 19), starGraph(40)} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, combine := range []bool{false, true} {
				for _, parallel := range []bool{false, true} {
					cfg := Config{NumWorkers: workers, Parallel: parallel}
					if combine {
						cfg.Combine = sumCombine
					}
					ce, cv := runProg(t, g, testProg{rounds: 4}, cfg)
					fe, fv := runProg(t, g, testProg{rounds: 4, fan: true}, cfg)
					for v := range cv {
						if cv[v] != fv[v] {
							t.Fatalf("workers=%d combine=%v parallel=%v: value[%d] per-edge %v fan %v",
								workers, combine, parallel, v, cv[v], fv[v])
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
	g := b.Build()
	for _, combine := range []bool{false, true} {
		cfg := Config{NumWorkers: 2}
		if combine {
			cfg.Combine = sumCombine
		}
		ce, cv := runProg(t, g, testProg{rounds: 4}, cfg)
		fe, fv := runProg(t, g, testProg{rounds: 4, fan: true}, cfg)
		for v := range cv {
			if cv[v] != fv[v] {
				t.Fatalf("combine=%v: value[%d] per-edge %v fan %v", combine, v, cv[v], fv[v])
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

// boxedPageRank runs pageRankProg serially with every message boxed in a
// per-destination list — the delivery the engine had before it moved to
// columnar messages — doing the program's exact arithmetic. With combine,
// a sender worker's messages for one destination fold, in send order, into
// the first one, as the engine's sender-side combining does. It returns the
// ranks and, per worker, the rows sent and received and the merges made.
func boxedPageRank(g *graph.Graph, iterations int, workerOf func(int32) int, workers int, combine bool) (
	ranks []float64, sent, received, combined []int64) {
	n := g.NumNodes
	sent, received, combined = make([]int64, workers), make([]int64, workers), make([]int64, workers)
	ranks = make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	for step := 0; step < iterations; step++ {
		inbox := make([][][2]float32, n)
		first := map[[2]int32]int{} // (sender worker, dst) -> row in inbox[dst]
		for v := int32(0); int(v) < n; v++ {
			dsts := g.OutNeighbors(v)
			if len(dsts) == 0 {
				continue
			}
			w := workerOf(v)
			var pay [2]float32
			encode64(pay[:], ranks[v]/float64(len(dsts)))
			for _, d := range dsts {
				key := [2]int32{int32(w), d}
				if i, ok := first[key]; ok && combine {
					pageRankCombine(0, inbox[d][i][:], pay[:], 1, 1)
					combined[w]++
					continue
				}
				first[key] = len(inbox[d])
				inbox[d] = append(inbox[d], pay)
				sent[w]++
				received[workerOf(d)]++
			}
		}
		for v := range ranks {
			var sum float64
			for _, m := range inbox[v] {
				sum += decode64(m[:])
			}
			ranks[v] = 0.15/float64(n) + 0.85*sum
		}
	}
	return ranks, sent, received, combined
}

// TestColumnarMatchesBoxed: columnar delivery is a pure transport change.
// Ranks, message counts, wire bytes and combine counts are bit-identical
// to boxed per-destination delivery at every worker count, serial and
// parallel, with and without combining.
func TestColumnarMatchesBoxed(t *testing.T) {
	g := randomGraph(60, 240, 11)
	const iterations = 4
	const rowBytes = 4*2 + 16 // the default Bytes of a two-float payload
	for _, workers := range []int{1, 2, 4, 8} {
		for _, combine := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				cfg := Config{NumWorkers: workers, Parallel: parallel}
				if combine {
					cfg.Combine = pageRankCombine
				}
				eng, got := runPageRank(t, g, iterations, cfg)
				want, sent, received, combined := boxedPageRank(g, iterations, eng.part.WorkerFor, workers, combine)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("workers=%d combine=%v parallel=%v: rank[%d] columnar %v boxed %v",
							workers, combine, parallel, v, got[v], want[v])
					}
				}
				for w, m := range eng.TotalMetrics() {
					if m.MessagesSent != sent[w] || m.MessagesReceived != received[w] ||
						m.BytesSent != rowBytes*sent[w] || m.BytesReceived != rowBytes*received[w] ||
						m.CombinedAway != combined[w] {
						t.Fatalf("workers=%d combine=%v parallel=%v: worker %d metrics %+v; boxed sent %d received %d combined %d",
							workers, combine, parallel, w, m, sent[w], received[w], combined[w])
					}
				}
			}
		}
	}
}

// orderProg has every vertex send three messages to vertex 0 at superstep
// 0, and records the order vertex 0 receives them in at superstep 1.
type orderProg struct{ got []int32 }

func (p *orderProg) ComputeBatch(ctx *BatchContext) {
	owned := ctx.Owned()
	if ctx.Superstep == 0 {
		for _, v := range owned {
			for s := int32(0); s < 3; s++ {
				ctx.SendColumnar(0, 0, v, s, []float32{float32(v), float32(s), 0})
			}
		}
	}
	if ctx.Superstep == 1 {
		off, in := ctx.InboxCSR()
		for li, v := range owned {
			if v != 0 {
				continue
			}
			for i := off[li]; i < off[li+1]; i++ {
				if in.Payloads[i][0] != float32(in.Srcs[i]) || in.Payloads[i][1] != float32(in.Counts[i]) {
					panic("orderProg: payload does not match its header")
				}
				p.got = append(p.got, in.Srcs[i]*4+in.Counts[i])
			}
		}
	}
	ctx.HaltAll()
}

// TestColumnarDeliveryOrderMatchesBoxed: per-destination message order is
// part of the engine contract (globally ascending source id, emission order
// within a source); the columnar barrier reproduces the order a boxed
// per-destination list fills in, serial and parallel delivery alike.
func TestColumnarDeliveryOrderMatchesBoxed(t *testing.T) {
	const n = 13
	var boxed []int32
	for src := int32(0); src < n; src++ {
		for s := int32(0); s < 3; s++ {
			boxed = append(boxed, src*4+s)
		}
	}
	for _, workers := range []int{1, 2, 4, 5} {
		for _, parallel := range []bool{false, true} {
			prog := &orderProg{}
			eng := NewEngine(ringGraph(n), prog, Config{NumWorkers: workers, MaxSupersteps: 4, Parallel: parallel})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if len(prog.got) != len(boxed) {
				t.Fatalf("workers=%d parallel=%v: received %d, want %d", workers, parallel, len(prog.got), len(boxed))
			}
			for i := range boxed {
				if prog.got[i] != boxed[i] {
					t.Fatalf("workers=%d parallel=%v: delivery order diverges at %d: columnar %v boxed %v",
						workers, parallel, i, prog.got, boxed)
				}
			}
		}
	}
}
