package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
)

// Pipelined-plane equivalence tests: chunked eager flushing and background
// inbox assembly are a pure scheduling change, so the pipelined plane must
// produce bit-identical logits AND identical IO accounting against the BSP
// plane under every strategy combination, at multiple chunk sizes and
// pipeline depths — and recover byte-identically from an injected
// mid-pipeline worker failure.

// requireSameRun asserts bit-identical logits and identical run stats.
func requireSameRun(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !want.Logits.Equal(got.Logits) {
		t.Fatalf("%s: logits diverge: max diff %v",
			label, want.Logits.MaxAbsDiff(got.Logits))
	}
	ws, gs := want.Stats, got.Stats
	if ws.MessagesSent != gs.MessagesSent || ws.BytesSent != gs.BytesSent ||
		ws.BytesReceived != gs.BytesReceived || ws.RemoteMessages != gs.RemoteMessages ||
		ws.RemoteBytes != gs.RemoteBytes || ws.CombinedAway != gs.CombinedAway ||
		ws.BroadcastHubs != gs.BroadcastHubs || ws.Supersteps != gs.Supersteps {
		t.Fatalf("%s: stats diverge:\nwant %+v\ngot  %+v", label, ws, gs)
	}
}

func TestPipelinedPlaneBitIdenticalAllStrategies(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 230)
	m := sageModel(t)
	for _, workers := range []int{1, 4, 8} {
		for _, parallel := range []bool{false, true} {
			for _, opts := range strategyCombos(workers, parallel) {
				bsp, err := RunPregel(m, g, opts)
				if err != nil {
					t.Fatalf("%s bsp: %v", comboName(opts), err)
				}
				for _, chunk := range []int{1, 17, 512} {
					po := opts
					po.Pipelined = true
					po.PipelineChunk = chunk
					po.PipelineDepth = 2
					pipe, err := RunPregel(m, g, po)
					if err != nil {
						t.Fatalf("%s pipelined: %v", comboName(opts), err)
					}
					requireSameRun(t, fmt.Sprintf("%s/chunk=%d", comboName(opts), chunk), bsp, pipe)
				}
			}
		}
	}
}

// TestPipelinedPlacementBitIdentical: pipelining composes with locality-aware
// placement — results stay bit-identical to the BSP plane under LDG too.
func TestPipelinedPlacementBitIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 260)
	m := sageModel(t)
	for _, strat := range []graph.Strategy{graph.Hash{}, graph.LDG{}} {
		opts := Options{NumWorkers: 8, Partitioner: strat, Broadcast: true, Parallel: true}
		bsp, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		po := opts
		po.Pipelined = true
		po.PipelineChunk = 8
		pipe, err := RunPregel(m, g, po)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, strat.Name(), bsp, pipe)
	}
}

// TestPipelinedRecoveryByteIdentical is the checkpoint/recovery acceptance
// test for the pipelined plane: FailAtSuperstep mid-pipeline must replay
// byte-identically. Checkpoints fall between
// supersteps, after every in-flight sealed extent has drained into the
// snapshotted inbox, so the snapshot's in-flight state is complete by
// construction.
func TestPipelinedRecoveryByteIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 240)
	m := sageModel(t)
	opts := Options{
		NumWorkers: 6, PartialGather: true, Parallel: true,
		Pipelined: true, PipelineChunk: 7,
		CheckpointEvery: 1,
	}
	clean, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	failing := opts
	failing.FailAtSuperstep = 2
	recovered, err := RunPregel(m, g, failing)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "recovered", clean, recovered)
	// And the recovered pipelined run matches the BSP plane bit for bit.
	bspOpts := opts
	bspOpts.Pipelined, bspOpts.PipelineChunk, bspOpts.CheckpointEvery = false, 0, 0
	bsp, err := RunPregel(m, g, bspOpts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "recovered vs bsp", bsp, recovered)
}
