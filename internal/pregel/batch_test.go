package pregel

import (
	"testing"
)

// The batched compute plane must be a pure dispatch change: a batch program
// that folds each vertex's inbox range in order reproduces the per-vertex
// columnar program bit for bit — values, metrics, and recovery behaviour.

// batchSumProg is colSumProg re-expressed as a BatchProgram. Its state is
// program-owned (per-worker value slabs indexed by local vertex), the shape
// the GNN driver uses, so checkpoint recovery exercises the ProgramStater
// hooks: replays would diverge if the engine failed to snapshot/restore the
// slabs.
type batchSumProg struct {
	rounds int
	vals   [][]float32 // per worker, indexed by local vertex index
}

func newBatchSumProg(rounds, workers int) *batchSumProg {
	return &batchSumProg{rounds: rounds, vals: make([][]float32, workers)}
}

// Compute satisfies VertexProgram; the engine never calls it in batched mode.
func (p *batchSumProg) Compute(*Context[float32, [3]float32], [][3]float32) {
	panic("batchSumProg: per-vertex Compute on the batched plane")
}

func (p *batchSumProg) ComputeBatch(ctx *BatchContext[float32, [3]float32]) {
	w := ctx.WorkerID()
	owned := ctx.Owned()
	if ctx.Superstep == 0 {
		p.vals[w] = make([]float32, len(owned))
		for li, v := range owned {
			p.vals[w][li] = float32(int(v)%7 + 1)
		}
	} else {
		off, in := ctx.InboxCSR()
		for li := range owned {
			var s float32
			for i := off[li]; i < off[li+1]; i++ {
				s += in.Payloads[i][0] + in.Payloads[i][2]
			}
			p.vals[w][li] = float32(int(s) % sumMod)
		}
	}
	for li, v := range owned {
		*ctx.Value(v) = p.vals[w][li] // mirror for Engine.Values()
	}
	if ctx.Superstep >= p.rounds {
		ctx.HaltAll()
		return
	}
	var pay [3]float32
	for li, v := range owned {
		dsts, _ := ctx.OutEdges(v)
		pay = [3]float32{p.vals[w][li], float32(v), 1}
		for _, d := range dsts {
			ctx.SendColumnar(d, 0, v, 1, pay[:])
		}
	}
}

// SnapshotProgState implements ProgramStater.
func (p *batchSumProg) SnapshotProgState() any {
	snap := make([][]float32, len(p.vals))
	for w, vs := range p.vals {
		snap[w] = append([]float32(nil), vs...)
	}
	return snap
}

// RestoreProgState implements ProgramStater.
func (p *batchSumProg) RestoreProgState(snap any) {
	for w, vs := range snap.([][]float32) {
		p.vals[w] = append(p.vals[w][:0], vs...)
	}
}

func runBatchSum(t *testing.T, topo Topology, workers int, combine, parallel bool) (*Engine[float32, [3]float32], []float32) {
	t.Helper()
	ops := &ColumnarOps{}
	if combine {
		ops.Combine = colSumCombiner
	}
	cfg := Config[[3]float32]{NumWorkers: workers, Parallel: parallel, Columnar: ops, Batched: true}
	eng := NewEngine[float32, [3]float32](topo, newBatchSumProg(4, workers), cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, append([]float32(nil), eng.Values()...)
}

// TestBatchedMatchesPerVertex: values, traffic and combine counts must be
// bit-identical to the per-vertex columnar plane at every worker count,
// serial and parallel, with and without combining.
func TestBatchedMatchesPerVertex(t *testing.T) {
	topo := randomTopology(t, 60, 240, 11)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, combine := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				ce, cv := runColSum(t, topo, workers, combine, parallel)
				be, bv := runBatchSum(t, topo, workers, combine, parallel)
				for v := range cv {
					if cv[v] != bv[v] {
						t.Fatalf("workers=%d combine=%v parallel=%v: value[%d] per-vertex %v batched %v",
							workers, combine, parallel, v, cv[v], bv[v])
					}
				}
				cm, bm := ce.TotalMetrics(), be.TotalMetrics()
				for w := range cm {
					if cm[w] != bm[w] {
						t.Fatalf("workers=%d combine=%v parallel=%v: worker %d metrics diverge:\nper-vertex %+v\nbatched    %+v",
							workers, combine, parallel, w, cm[w], bm[w])
					}
				}
			}
		}
	}
}

// TestBatchedRecoveryByteIdentical: a batched run that loses a superstep to
// an injected failure must replay to the failure-free result, which requires
// the engine to checkpoint the program-owned slabs through ProgramStater.
func TestBatchedRecoveryByteIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	run := func(faults *FaultPlan) ([]float32, int) {
		eng := NewEngine[float32, [3]float32](topo, newBatchSumProg(6, 4), Config[[3]float32]{
			NumWorkers:      4,
			Parallel:        true,
			MaxSupersteps:   10,
			CheckpointEvery: 2,
			Faults:          faults,
			Columnar:        &ColumnarOps{Combine: colSumCombiner},
			Batched:         true,
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

// TestBatchedConfigMisuse: the batched plane requires the columnar plane and
// a BatchProgram; both misconfigurations panic at construction.
func TestBatchedConfigMisuse(t *testing.T) {
	topo := ringTopology(t, 4)
	expectPanic := func(name string, build func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		build()
	}
	expectPanic("batched without columnar", func() {
		NewEngine[float32, [3]float32](topo, newBatchSumProg(2, 2), Config[[3]float32]{
			NumWorkers: 2, Batched: true,
		})
	})
	expectPanic("batched without BatchProgram", func() {
		NewEngine[float32, [3]float32](topo, &colSumProg{rounds: 2}, Config[[3]float32]{
			NumWorkers: 2, Batched: true, Columnar: &ColumnarOps{},
		})
	})
}
