package pregel

import (
	"math"
	"testing"
)

// colConfig builds the standard columnar test config for one plane combo.
func colConfig(parallel, batched bool) Config[[3]float32] {
	return Config[[3]float32]{
		NumWorkers:      4,
		Parallel:        parallel,
		MaxSupersteps:   10,
		CheckpointEvery: 2,
		Columnar:        &ColumnarOps{Combine: colSumCombiner},
		Batched:         batched,
	}
}

// colPlanes are the compute planes the fault matrix covers.
var colPlanes = []struct {
	name    string
	batched bool
}{
	{"pervertex", false},
	{"batched", true},
}

func newColProg(batched bool) VertexProgram[float32, [3]float32] {
	if batched {
		return newBatchSumProg(6, 4)
	}
	return newScratchSumProg(6, 4)
}

// TestFaultPlanMatrixByteIdentical drives every fault point through every
// plane combo — including multiple crashes in one run — and requires values
// and message totals bit-identical to the failure-free run.
func TestFaultPlanMatrixByteIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	faultSets := map[string][]Fault{
		"before":     {{Superstep: 5, Point: FaultBeforeSuperstep}},
		"mid":        {{Superstep: 5, Point: FaultMidPipeline}},
		"barrier":    {{Superstep: 5, Point: FaultAtBarrier}},
		"checkpoint": {{Superstep: 3, Point: FaultDuringCheckpoint}},
		"multi": {
			{Superstep: 1, Point: FaultMidPipeline},
			{Superstep: 3, Point: FaultDuringCheckpoint},
			{Superstep: 5, Point: FaultAtBarrier},
			{Superstep: 5, Point: FaultBeforeSuperstep}, // fires on the replay pass
		},
	}
	for _, pl := range colPlanes {
		run := func(plan *FaultPlan) ([]float32, int, int64) {
			cfg := colConfig(true, pl.batched)
			cfg.Faults = plan
			eng := NewEngine[float32, [3]float32](topo, newColProg(pl.batched), cfg)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			var sent int64
			for _, m := range eng.TotalMetrics() {
				sent += m.MessagesSent
			}
			return append([]float32(nil), eng.Values()...), eng.Recoveries(), sent
		}
		clean, rec0, sent0 := run(nil)
		if rec0 != 0 {
			t.Fatalf("%s: clean run recovered", pl.name)
		}
		for name, faults := range faultSets {
			failed, rec, sent := run(&FaultPlan{Crashes: faults})
			if rec != len(faults) {
				t.Fatalf("%s/%s: recoveries = %d, want %d", pl.name, name, rec, len(faults))
			}
			if sent != sent0 {
				t.Fatalf("%s/%s: message totals differ: clean %d vs %d (lost work not discarded)",
					pl.name, name, sent0, sent)
			}
			for v := range clean {
				if clean[v] != failed[v] {
					t.Fatalf("%s/%s: value[%d] differs after recovery: %v vs %v",
						pl.name, name, v, clean[v], failed[v])
				}
			}
		}
	}
}

// TestFaultAtSuperstepZero: a FaultPlan entry can target superstep 0, and
// the step-0 checkpoint an armed plan takes recovers it.
func TestFaultAtSuperstepZero(t *testing.T) {
	topo := randomTopology(t, 50, 200, 13)
	run := func(plan *FaultPlan) ([]float32, int) {
		cfg := colConfig(false, false)
		cfg.Faults = plan
		eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(5, 4), cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), eng.Values()...), eng.Recoveries()
	}
	clean, _ := run(nil)
	for _, p := range []FaultPoint{FaultBeforeSuperstep, FaultMidPipeline, FaultAtBarrier} {
		failed, rec := run(&FaultPlan{Crashes: []Fault{{Superstep: 0, Point: p}}})
		if rec != 1 {
			t.Fatalf("%v at superstep 0: recoveries = %d, want 1", p, rec)
		}
		for v := range clean {
			if clean[v] != failed[v] {
				t.Fatalf("%v at superstep 0: value[%d] differs", p, v)
			}
		}
	}
}

// TestBoxedPlaneFaultRecovery mirrors the columnar matrix on the boxed
// message plane, exercising worker mail and aggregators across a rollback.
func TestBoxedPlaneFaultRecovery(t *testing.T) {
	topo := randomTopology(t, 60, 240, 17)
	// A boxed program using every snapshotted channel: vertex messages,
	// worker mail, and an aggregator read back the next superstep.
	prog := func() VertexProgram[float64, float64] {
		return progFunc[float64, float64](func(ctx *Context[float64, float64], msgs []float64) {
			if ctx.Superstep == 0 {
				*ctx.Value = float64(int(ctx.ID)%9 + 1)
			} else {
				var s float64
				for _, m := range msgs {
					s += m
				}
				for _, m := range ctx.WorkerMail() {
					s += m / 1000
				}
				if g, ok := ctx.AggregatorGet("shift"); ok {
					s += float64(g[0])
				}
				*ctx.Value = math.Mod(s, 9973)
			}
			if ctx.Superstep >= 6 {
				ctx.VoteToHalt()
				return
			}
			dsts, _ := ctx.OutEdges()
			for _, d := range dsts {
				ctx.SendMessage(d, *ctx.Value+float64(ctx.ID)/7)
			}
			ctx.SendToWorker((int(ctx.ID)+1)%ctx.NumWorkers(), float64(ctx.ID))
			if ctx.ID == 0 {
				ctx.AggregatorPut("shift", []float32{float32(ctx.Superstep)})
			}
		})
	}
	run := func(plan *FaultPlan) ([]float64, int) {
		eng := NewEngine[float64, float64](topo, prog(), Config[float64]{
			NumWorkers: 4, Parallel: true, MaxSupersteps: 10, CheckpointEvery: 2, Faults: plan,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), eng.Values()...), eng.Recoveries()
	}
	clean, _ := run(nil)
	for name, faults := range map[string][]Fault{
		"mid":     {{Superstep: 3, Point: FaultMidPipeline}},
		"barrier": {{Superstep: 5, Point: FaultAtBarrier}},
		"multi":   {{Superstep: 1, Point: FaultAtBarrier}, {Superstep: 5, Point: FaultMidPipeline}},
	} {
		failed, rec := run(&FaultPlan{Crashes: faults})
		if rec != len(faults) {
			t.Fatalf("%s: recoveries = %d, want %d", name, rec, len(faults))
		}
		for v := range clean {
			if clean[v] != failed[v] {
				t.Fatalf("%s: value[%d] differs after boxed recovery: %v vs %v",
					name, v, clean[v], failed[v])
			}
		}
	}
}

// TestCheckpointStatsObservability: committed checkpoints, snapshot wall
// time, and the per-superstep CheckpointNs metric must all be visible.
func TestCheckpointStatsObservability(t *testing.T) {
	topo := randomTopology(t, 50, 200, 5)
	cfg := colConfig(false, false)
	eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(6, 4), cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cs := eng.CheckpointStats()
	// 6 rounds + halt step, CheckpointEvery=2: seed at 0 plus steps 2,4,6.
	if cs.Checkpoints < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", cs.Checkpoints)
	}
	if cs.SnapshotNs == 0 {
		t.Fatalf("stats not recorded: %+v", cs)
	}
	var perStep int64
	for _, step := range eng.Metrics() {
		perStep += step[0].CheckpointNs
	}
	if perStep == 0 {
		t.Fatal("StepMetrics.CheckpointNs never charged")
	}
	var total int64
	for _, m := range eng.TotalMetrics() {
		total += m.CheckpointNs
	}
	if total != perStep {
		t.Fatalf("TotalMetrics checkpoint time %d != per-step sum %d", total, perStep)
	}
}
