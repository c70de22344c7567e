package pregel

import (
	"testing"

	"inferturbo/internal/graph"
)

// Fault tolerance: a failure mid-run plus checkpoint recovery must produce
// exactly the results of a failure-free run.

// crashBefore is a one-entry plan crashing before superstep step.
func crashBefore(step int) *FaultPlan {
	return &FaultPlan{Crashes: []Fault{{Superstep: step, Point: FaultBeforeSuperstep}}}
}

func TestRecoveryReproducesPageRank(t *testing.T) {
	g := randomGraph(80, 400, 9)
	run := func(faults *FaultPlan) ([]float64, int) {
		eng, ranks := runPageRank(t, g, 12, Config{
			NumWorkers:      4,
			Combine:         pageRankCombine,
			CheckpointEvery: 3,
			Faults:          faults,
		})
		return ranks, eng.Recoveries()
	}
	clean, rec0 := run(nil)
	if rec0 != 0 {
		t.Fatal("clean run must not recover")
	}
	failed, rec1 := run(crashBefore(7))
	if rec1 != 1 {
		t.Fatalf("recoveries = %d, want 1", rec1)
	}
	for v := range clean {
		if clean[v] != failed[v] {
			t.Fatalf("rank[%d] differs after recovery: %v vs %v", v, clean[v], failed[v])
		}
	}
}

// vecProg keeps a slice per vertex and replaces it (never mutates it) each
// superstep, as GNN programs replace their embeddings: h[v] = {superstep}.
type vecProg struct {
	g *graph.Graph
	h [][][]float64 // per worker, by local index
}

func (p *vecProg) ComputeBatch(ctx *BatchContext) {
	w := ctx.WorkerID()
	owned := ctx.Owned()
	if p.h[w] == nil {
		p.h[w] = make([][]float64, len(owned))
	}
	if ctx.Superstep >= 3 {
		ctx.HaltAll()
		return
	}
	for li, v := range owned {
		p.h[w][li] = append([]float64(nil), float64(ctx.Superstep))
		for _, d := range p.g.OutNeighbors(v) {
			ctx.SendColumnar(d, 0, v, 1, []float32{float32(ctx.Superstep)})
		}
	}
}

// SnapshotProgState implements ProgramStater: the outer slices are copied,
// the replaced-never-mutated inner ones shared.
func (p *vecProg) SnapshotProgState() any {
	snap := make([][][]float64, len(p.h))
	for w, hs := range p.h {
		snap[w] = append([][]float64(nil), hs...)
	}
	return snap
}

// RestoreProgState implements ProgramStater.
func (p *vecProg) RestoreProgState(snap any) {
	for w, hs := range snap.([][][]float64) {
		p.h[w] = append([][]float64(nil), hs...)
	}
}

// TestGNNStyleValueSurvivesSnapshot: program state that replaces (not
// mutates) its per-vertex slices must round-trip checkpoints through
// ProgramStater and replay to the failure-free result.
func TestGNNStyleValueSurvivesSnapshot(t *testing.T) {
	g := ringGraph(6)
	prog := &vecProg{g: g, h: make([][][]float64, 2)}
	eng := NewEngine(g, prog, Config{
		NumWorkers: 2, CheckpointEvery: 1, Faults: crashBefore(2), MaxSupersteps: 10,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", eng.Recoveries())
	}
	for v := int32(0); v < 6; v++ {
		if got := prog.h[eng.part.WorkerFor(v)][eng.part.LocalIndex(v)][0]; got != 2 {
			t.Fatalf("vertex %d value = %v, want 2", v, got)
		}
	}
}

func TestRecoveryAtCheckpointBoundary(t *testing.T) {
	g := ringGraph(20)
	p := testProg{rounds: 8}
	eng, prog := newProgEngine(g, p, Config{
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
	checkRef(t, "recovered", eng, prog, refRun(g, p, nil, 64, 3))
}

func TestFailureWithoutCheckpointErrors(t *testing.T) {
	eng, _ := newProgEngine(ringGraph(10), testProg{rounds: 5}, Config{
		NumWorkers: 2,
		Faults:     crashBefore(2), // no CheckpointEvery configured
	})
	if err := eng.Run(); err == nil {
		t.Fatal("failure without checkpoints must surface an error")
	}
}

func TestRecoveryMetricsDiscardLostWork(t *testing.T) {
	g := randomGraph(40, 150, 10)
	run := func(faults *FaultPlan) int64 {
		eng, _ := runProg(t, g, testProg{rounds: 6}, Config{
			NumWorkers: 3, CheckpointEvery: 2, Faults: faults,
		})
		return sumMetrics(eng).MessagesSent
	}
	clean := run(nil)
	recovered := run(crashBefore(5))
	// Lost supersteps are rolled back and replayed; totals must match the
	// clean run (recovery re-executes, it does not double-count).
	if clean != recovered {
		t.Fatalf("message totals differ: clean %d vs recovered %d", clean, recovered)
	}
}

// TestColumnarRecoveryByteIdentical: a run that checkpoints, loses a
// superstep to an injected failure, and replays must be bit-identical to
// the failure-free run — the in-flight payloads restored from the snapshot
// are the ones that were live at the checkpoint, not whatever the recycled
// pages (or the program's scribbled send scratch) hold by the time the
// failure hits.
func TestColumnarRecoveryByteIdentical(t *testing.T) {
	g := randomGraph(70, 300, 21)
	run := func(faults *FaultPlan) ([]int32, int) {
		cfg := faultConfig(true)
		cfg.Faults = faults
		eng, vals := runProg(t, g, testProg{rounds: 6}, cfg)
		return vals, eng.Recoveries()
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

// TestBatchedRecoveryByteIdentical: a run that loses a superstep must
// replay to the failure-free result, which requires the engine to
// checkpoint the program-owned slabs through ProgramStater.
func TestBatchedRecoveryByteIdentical(t *testing.T) {
	g := randomGraph(70, 300, 21)
	p := testProg{rounds: 6, fan: true}
	run := func(faults *FaultPlan) (vals, first []int32, restores int) {
		cfg := faultConfig(true)
		cfg.Faults = faults
		eng, prog := newProgEngine(g, p, cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		vals, first = prog.values(eng)
		return vals, first, prog.restores
	}
	cleanVals, cleanFirst, rec0 := run(nil)
	if rec0 != 0 {
		t.Fatal("clean run must not restore program state")
	}
	vals, first, rec1 := run(crashBefore(5)) // fails one superstep past the step-4 checkpoint
	if rec1 != 1 {
		t.Fatalf("program state restored %d times, want 1", rec1)
	}
	for v := range cleanVals {
		if cleanVals[v] != vals[v] || cleanFirst[v] != first[v] {
			t.Fatalf("vertex %d differs after recovery: (%v, %v) vs (%v, %v)",
				v, cleanVals[v], cleanFirst[v], vals[v], first[v])
		}
	}
}

// TestCheckpointDeepCopiesArenas is the direct aliasing regression test:
// take a checkpoint, scribble over every page of every live send buffer (as
// superstep recycling will), and verify a restore reproduces the original
// inbox payloads byte for byte from the snapshot's own storage.
func TestCheckpointDeepCopiesArenas(t *testing.T) {
	eng, _ := newProgEngine(randomGraph(40, 200, 22), testProg{rounds: 6, fan: true}, Config{
		NumWorkers: 3, MaxSupersteps: 10,
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
