package pregel

import (
	"math"
	"testing"
)

// Fault tolerance: a failure mid-run plus checkpoint recovery must produce
// exactly the results of a failure-free run.

// crashBefore is a one-entry plan crashing before superstep step.
func crashBefore(step int) *FaultPlan {
	return &FaultPlan{Crashes: []Fault{{Superstep: step, Point: FaultBeforeSuperstep}}}
}

func TestRecoveryReproducesPageRank(t *testing.T) {
	topo := randomTopology(t, 80, 400, 9)
	run := func(faults *FaultPlan, checkpointEvery int) ([]float64, int) {
		prog := &PageRankProgram{NumVertices: 80, Iterations: 12}
		eng := NewEngine[float64, float64](topo, prog, Config[float64]{
			NumWorkers:      4,
			Combiner:        PageRankCombiner,
			CheckpointEvery: checkpointEvery,
			Faults:          faults,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 80)
		copy(out, eng.Values())
		return out, eng.Recoveries()
	}
	clean, rec0 := run(nil, 3)
	if rec0 != 0 {
		t.Fatal("clean run must not recover")
	}
	failed, rec1 := run(crashBefore(7), 3)
	if rec1 != 1 {
		t.Fatalf("recoveries = %d, want 1", rec1)
	}
	for v := range clean {
		if clean[v] != failed[v] {
			t.Fatalf("rank[%d] differs after recovery: %v vs %v", v, clean[v], failed[v])
		}
	}
}

func TestRecoveryAtCheckpointBoundary(t *testing.T) {
	topo := ringTopology(t, 20)
	prog := &PageRankProgram{NumVertices: 20, Iterations: 8}
	eng := NewEngine[float64, float64](topo, prog, Config[float64]{
		NumWorkers:      3,
		CheckpointEvery: 4,
		Faults:          crashBefore(4), // fails exactly on the checkpointed superstep
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Recoveries() != 1 {
		t.Fatalf("recoveries = %d", eng.Recoveries())
	}
	var sum float64
	for _, r := range eng.Values() {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass after recovery = %v", sum)
	}
}

func TestFailureWithoutCheckpointErrors(t *testing.T) {
	topo := ringTopology(t, 10)
	prog := &PageRankProgram{NumVertices: 10, Iterations: 5}
	eng := NewEngine[float64, float64](topo, prog, Config[float64]{
		NumWorkers: 2,
		Faults:     crashBefore(2), // no CheckpointEvery configured
	})
	if err := eng.Run(); err == nil {
		t.Fatal("failure without checkpoints must surface an error")
	}
}

func TestRecoveryMetricsDiscardLostWork(t *testing.T) {
	topo := randomTopology(t, 40, 150, 10)
	run := func(faults *FaultPlan) int64 {
		prog := &PageRankProgram{NumVertices: 40, Iterations: 6}
		eng := NewEngine[float64, float64](topo, prog, Config[float64]{
			NumWorkers: 3, CheckpointEvery: 2, Faults: faults,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var sent int64
		for _, m := range eng.TotalMetrics() {
			sent += m.MessagesSent
		}
		return sent
	}
	clean := run(nil)
	recovered := run(crashBefore(5))
	// Lost supersteps are rolled back and replayed; totals must match the
	// clean run (recovery re-executes, it does not double-count).
	if clean != recovered {
		t.Fatalf("message totals differ: clean %d vs recovered %d", clean, recovered)
	}
}

func TestGNNStyleValueSurvivesSnapshot(t *testing.T) {
	// Vertex programs that replace (not mutate) their value contents must
	// round-trip snapshots: exercise with a slice-valued program.
	type vec struct{ h []float64 }
	topo := ringTopology(t, 6)
	prog := progFunc[vec, int](func(ctx *Context[vec, int], msgs []int) {
		if ctx.Superstep >= 3 {
			ctx.VoteToHalt()
			return
		}
		ctx.Value.h = append([]float64(nil), float64(ctx.Superstep))
		dsts, _ := ctx.OutEdges()
		for _, d := range dsts {
			ctx.SendMessage(d, ctx.Superstep)
		}
	})
	eng := NewEngine[vec, int](topo, prog, Config[int]{
		NumWorkers: 2, CheckpointEvery: 1, Faults: crashBefore(2), MaxSupersteps: 10,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if got := eng.VertexValue(int32(v)).h[0]; got != 2 {
			t.Fatalf("vertex %d value = %v, want 2", v, got)
		}
	}
}

// progFunc adapts a function to VertexProgram.
type progFunc[V, M any] func(ctx *Context[V, M], msgs []M)

func (f progFunc[V, M]) Compute(ctx *Context[V, M], msgs []M) { f(ctx, msgs) }

// scratchSumProg is colSumProg sending every payload from one per-worker
// scratch buffer it mutates between (and after) sends: sound only because
// SendColumnar copies into the send buffer at send time. Combined with failure
// injection it exercises the checkpoint deep-copy rule end to end.
type scratchSumProg struct {
	rounds  int
	scratch [][3]float32 // one slot per worker
}

func newScratchSumProg(rounds, workers int) *scratchSumProg {
	return &scratchSumProg{rounds: rounds, scratch: make([][3]float32, workers)}
}

func (p *scratchSumProg) Compute(ctx *Context[float32, [3]float32], _ [][3]float32) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%5 + 1)
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
	scratch := &p.scratch[ctx.WorkerID()]
	dsts, _ := ctx.OutEdges()
	for _, d := range dsts {
		*scratch = [3]float32{*ctx.Value, float32(ctx.ID), 1}
		ctx.SendColumnar(d, 0, ctx.ID, 1, scratch[:])
		*scratch = [3]float32{-1, -1, -1} // must not reach any receiver
	}
}

// TestColumnarRecoveryByteIdentical: a columnar run that checkpoints, loses
// a superstep to an injected failure, and replays must be bit-identical to
// the failure-free run — the in-flight payloads restored from the
// snapshot are the ones that were live at the checkpoint, not whatever the
// recycled pages hold by the time the failure hits.
func TestColumnarRecoveryByteIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	run := func(faults *FaultPlan) ([]float32, int) {
		eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(6, 4), Config[[3]float32]{
			NumWorkers:      4,
			Parallel:        true,
			MaxSupersteps:   10,
			CheckpointEvery: 2,
			Faults:          faults,
			Columnar:        &ColumnarOps{Combine: colSumCombiner},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), eng.Values()...), eng.Recoveries()
	}
	clean, rec0 := run(nil)
	if rec0 != 0 {
		t.Fatal("clean run must not recover")
	}
	failed, rec1 := run(crashBefore(5)) // fails one superstep past the step-4 checkpoint
	if rec1 != 1 {
		t.Fatalf("recoveries = %d, want 1", rec1)
	}
	for v := range clean {
		if clean[v] != failed[v] {
			t.Fatalf("value[%d] differs after recovery: %v vs %v", v, clean[v], failed[v])
		}
	}
}

// TestCheckpointDeepCopiesArenas is the direct aliasing regression test:
// take a checkpoint, scribble over every page of every live send buffer (as
// superstep recycling will), and verify a restore reproduces the original
// inbox payloads byte for byte from the snapshot's own storage.
func TestCheckpointDeepCopiesArenas(t *testing.T) {
	topo := randomTopology(t, 40, 200, 22)
	eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(6, 3), Config[[3]float32]{
		NumWorkers: 3, MaxSupersteps: 10, Columnar: &ColumnarOps{},
	})
	eng.runSuperstep(0) // fills the inbox consumed by superstep 1
	eng.takeCheckpoint(1)

	// Record the payloads the inbox views currently resolve to.
	var want [][]float32
	for r := range eng.colIn {
		for _, p := range eng.colIn[r].cols.pays {
			want = append(want, append([]float32(nil), p...))
		}
	}
	if len(want) == 0 {
		t.Fatal("no in-flight payloads to checkpoint")
	}

	// Mutate every live page — in production this is the recycling that
	// happens on the supersteps after the checkpoint.
	for s := range eng.colLive {
		for r := range eng.colLive[s] {
			if b := eng.colLive[s][r]; b != nil {
				for _, pg := range bufPages(b) {
					pg = pg[:cap(pg)]
					for i := range pg {
						pg[i] = -9999
					}
				}
			}
		}
	}

	eng.restoreCheckpoint()
	i := 0
	for r := range eng.colIn {
		for _, p := range eng.colIn[r].cols.pays {
			for j := range p {
				if p[j] != want[i][j] {
					t.Fatalf("restored payload %d[%d] = %v, want %v (checkpoint aliased a live page)",
						i, j, p[j], want[i][j])
				}
			}
			i++
		}
	}
}
