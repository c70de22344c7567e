package pregel

import (
	"testing"
)

// hopProg records the first superstep each vertex computed at (1-based so
// zero means "never computed") and relays a token along its out-edges, then
// halts. With a seeded frontier, computation floods outward one hop per
// superstep — the activation pattern the incremental GNN drivers rely on.
type hopProg struct{ hops int }

func (p *hopProg) Compute(ctx *Context[int, int], msgs []int) {
	if *ctx.Value == 0 {
		*ctx.Value = ctx.Superstep + 1
	}
	if ctx.Superstep < p.hops {
		dsts, _ := ctx.OutEdges()
		for _, d := range dsts {
			ctx.SendMessage(d, 1)
		}
	}
	ctx.VoteToHalt()
}

func TestFrontierFloodsFromSeeds(t *testing.T) {
	const n = 12
	topo := ringTopology(t, n)
	for _, workers := range []int{1, 3} {
		prog := &hopProg{hops: 3}
		eng := NewEngine[int, int](topo, prog, Config[int]{
			NumWorkers: workers, MaxSupersteps: 10, Frontier: []int32{0},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// Vertex v on the ring first computes at superstep v, for v <= hops
		// (relaying stops at superstep hops); later vertices never run.
		for v, got := range eng.Values() {
			want := 0
			if v <= 3 {
				want = v + 1
			}
			if got != want {
				t.Fatalf("workers=%d vertex %d first-computed %d, want %d", workers, v, got, want)
			}
		}
		// Frontier size per superstep is observable through StepMetrics.
		for s, step := range eng.Metrics() {
			active := 0
			for _, m := range step {
				active += m.ActiveVertices
			}
			if active != 1 {
				t.Fatalf("superstep %d: %d active vertices, want 1", s, active)
			}
		}
	}
}

func TestFrontierMultipleSeeds(t *testing.T) {
	const n = 10
	topo := ringTopology(t, n)
	prog := &hopProg{hops: 1}
	eng := NewEngine[int, int](topo, prog, Config[int]{
		NumWorkers: 2, MaxSupersteps: 5, Frontier: []int32{2, 7},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{2: 1, 7: 1, 3: 2, 8: 2}
	for v, got := range eng.Values() {
		if got != want[v] {
			t.Fatalf("vertex %d first-computed %d, want %d", v, got, want[v])
		}
	}
}

func TestFrontierEmptyTerminatesImmediately(t *testing.T) {
	topo := ringTopology(t, 8)
	eng := NewEngine[int, int](topo, &hopProg{hops: 3}, Config[int]{
		NumWorkers: 2, MaxSupersteps: 5, Frontier: []int32{},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Supersteps() != 0 {
		t.Fatalf("supersteps = %d, want 0", eng.Supersteps())
	}
	for v, got := range eng.Values() {
		if got != 0 {
			t.Fatalf("vertex %d computed (%d) despite empty frontier", v, got)
		}
	}
}

func TestFrontierOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range frontier vertex")
		}
	}()
	NewEngine[int, int](ringTopology(t, 4), &hopProg{}, Config[int]{
		NumWorkers: 1, Frontier: []int32{9},
	})
}

// sparseProg keeps only a tiny moving frontier sending: vertex k sends to
// its out-neighbors at superstep k, everyone else stays halted, so every
// superstep delivers a handful of messages from sources far apart in the id
// space.
type sparseProg struct{ rounds int }

func (p *sparseProg) Compute(ctx *Context[float32, [3]float32], _ [][3]float32) {
	if ctx.Superstep > 0 {
		in := ctx.ColumnarInbox()
		for i := 0; i < in.Len(); i++ {
			*ctx.Value += in.Payloads[i][0]
		}
	}
	if ctx.Superstep < p.rounds && int(ctx.ID) == ctx.Superstep*37%97 {
		dsts, _ := ctx.OutEdges()
		pay := [3]float32{float32(ctx.ID) + 1, float32(ctx.ID), 1}
		for _, d := range dsts {
			ctx.SendColumnar(d, 0, ctx.ID, 1, pay[:])
		}
	}
	ctx.VoteToHalt()
}

// TestSparseFrontierMatchesSingleWorker: supersteps that carry a few
// messages over a large id space deliver the same values and traffic at
// any worker count, parallel or not.
func TestSparseFrontierMatchesSingleWorker(t *testing.T) {
	topo := randomTopology(t, 400, 1600, 23)
	run := func(workers int, parallel bool) ([]float32, int64) {
		eng := NewEngine[float32, [3]float32](topo, &sparseProg{rounds: 10}, Config[[3]float32]{
			NumWorkers: workers, Parallel: parallel, MaxSupersteps: 12, Columnar: &ColumnarOps{},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var recv int64
		for _, m := range eng.TotalMetrics() {
			recv += m.MessagesReceived
		}
		return append([]float32(nil), eng.Values()...), recv
	}
	ref, refRecv := run(1, false)
	if refRecv == 0 {
		t.Fatal("sparse frontier delivered nothing")
	}
	for _, workers := range []int{3, 8} {
		for _, parallel := range []bool{false, true} {
			got, recv := run(workers, parallel)
			if recv != refRecv {
				t.Fatalf("workers=%d parallel=%v: received %d messages, want %d", workers, parallel, recv, refRecv)
			}
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("workers=%d parallel=%v: value[%d] = %v, want %v", workers, parallel, v, got[v], ref[v])
				}
			}
		}
	}
}
