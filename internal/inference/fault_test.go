package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/pregel"
)

// crashBefore is a one-entry fault plan crashing before superstep step.
func crashBefore(step int) *pregel.FaultPlan {
	return &pregel.FaultPlan{Crashes: []pregel.Fault{{Superstep: step, Point: pregel.FaultBeforeSuperstep}}}
}

// TestFaultPlanInference: a multi-crash fault plan — including a superstep-0
// crash — recovers to byte-identical predictions.
func TestFaultPlanInference(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 180)
	m := sageModel(t)
	plan := &pregel.FaultPlan{Crashes: []pregel.Fault{
		{Superstep: 0, Point: pregel.FaultAtBarrier},
		{Superstep: 1, Point: pregel.FaultMidPipeline},
		{Superstep: 2, Point: pregel.FaultDuringCheckpoint},
		{Superstep: m.NumLayers(), Point: pregel.FaultBeforeSuperstep},
	}}
	opts := Options{NumWorkers: 4, Parallel: true}
	clean, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := opts
	chaotic.CheckpointEvery = 1
	chaotic.Faults = plan
	res, err := RunPregel(m, g, chaotic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries != len(plan.Crashes) {
		t.Fatalf("recoveries = %d, want %d", res.Stats.Recoveries, len(plan.Crashes))
	}
	if !clean.Logits.Equal(res.Logits) {
		t.Fatalf("logits diverge after fault plan: max diff %v", clean.Logits.MaxAbsDiff(res.Logits))
	}
}
