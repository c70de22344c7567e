package pregel

import (
	"testing"
)

// The frontier tests run testProg with halt set: every computed vertex
// halts after its superstep, so computation floods outward from the seeded
// frontier one hop per superstep, relaying while the superstep is below
// rounds — the activation pattern incremental GNN refreshes rely on.

func TestFrontierFloodsFromSeeds(t *testing.T) {
	const n = 12
	g := ringGraph(n)
	p := testProg{rounds: 3, halt: true}
	for _, workers := range []int{1, 3} {
		eng, prog := newProgEngine(g, p, Config{
			NumWorkers: workers, MaxSupersteps: 10, Frontier: []int32{0},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// Vertex v on the ring first computes at superstep v, for v <= hops
		// (relaying stops at superstep hops); later vertices never run.
		_, first := prog.values(eng)
		for v, got := range first {
			want := int32(0)
			if v <= 3 {
				want = int32(v + 1)
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
		checkRef(t, "ring", eng, prog, refRun(g, p, []int32{0}, 10, workers))
	}
}

func TestFrontierMultipleSeeds(t *testing.T) {
	const n = 10
	eng, prog := newProgEngine(ringGraph(n), testProg{rounds: 1, halt: true}, Config{
		NumWorkers: 2, MaxSupersteps: 5, Frontier: []int32{2, 7},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int32{2: 1, 7: 1, 3: 2, 8: 2}
	_, first := prog.values(eng)
	for v, got := range first {
		if got != want[v] {
			t.Fatalf("vertex %d first-computed %d, want %d", v, got, want[v])
		}
	}
}

func TestFrontierEmptyTerminatesImmediately(t *testing.T) {
	eng, prog := newProgEngine(ringGraph(8), testProg{rounds: 3, halt: true}, Config{
		NumWorkers: 2, MaxSupersteps: 5, Frontier: []int32{},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Supersteps() != 0 {
		t.Fatalf("supersteps = %d, want 0", eng.Supersteps())
	}
	for w, first := range prog.first {
		if first != nil {
			t.Fatalf("worker %d computed despite empty frontier", w)
		}
	}
}

func TestFrontierOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range frontier vertex")
		}
	}()
	NewEngine(ringGraph(4), &testProg{}, Config{NumWorkers: 1, Frontier: []int32{9}})
}

// TestSparseFrontierMatchesSingleWorker: supersteps that carry a few
// messages over a large id space deliver the same values and traffic at
// any worker count, parallel or not.
func TestSparseFrontierMatchesSingleWorker(t *testing.T) {
	g := randomGraph(400, 1600, 23)
	p := testProg{rounds: 2, halt: true}
	frontier := []int32{5, 200, 390}
	run := func(workers int, parallel bool) ([]int32, int64) {
		eng, prog := newProgEngine(g, p, Config{
			NumWorkers: workers, Parallel: parallel, MaxSupersteps: 12, Frontier: frontier,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		ref := refRun(g, p, frontier, 12, workers)
		checkRef(t, "sparse", eng, prog, ref)
		vals, _ := prog.values(eng)
		// Vertex-addressed messages only: worker mail grows with the
		// worker count.
		return vals, sumMetrics(eng).MessagesReceived - ref.sent[[2]int{int(kindMail), 2}]
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
