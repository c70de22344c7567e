package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/tensor"
)

// Every entry point of the inference stack — ReferenceForward, RunPregel,
// RunMapReduce — produces bit-identical (Matrix.Equal, not AllClose) logits
// between serial kernels (Tuning{Workers:1}) and 8-way parallel kernels
// (Tuning{Workers:8}), for every conv type.

func testModels(t *testing.T) map[string]*gas.Model {
	t.Helper()
	return map[string]*gas.Model{
		"sage": gas.NewSAGEModel("t-sage", gas.TaskSingleLabel, 8, 12, 4, 2, 0, tensor.NewRNG(5)),
		"gat":  gas.NewGATModel("t-gat", gas.TaskSingleLabel, 8, 6, 2, 4, 2, tensor.NewRNG(6)),
		"gcn":  gas.NewGCNModel("t-gcn", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(7)),
		"gin":  gas.NewGINModel("t-gin", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(8)),
	}
}

var tuningPair = []tensor.Tuning{
	{Workers: 1},
	{Workers: 8, BlockSize: 16, ParallelThreshold: 1},
}

func TestReferenceForwardBitIdenticalAcrossTuning(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 400)
	for name, m := range testModels(t) {
		var runs []*tensor.Matrix
		for _, tu := range tuningPair {
			prev := tensor.SetTuning(tu)
			runs = append(runs, ReferenceForward(m, g))
			tensor.SetTuning(prev)
		}
		if !runs[0].Equal(runs[1]) {
			t.Fatalf("%s: ReferenceForward differs between Workers:1 and Workers:8 (max diff %v)",
				name, runs[0].MaxAbsDiff(runs[1]))
		}
	}
}

func TestBackendsBitIdenticalAcrossTuning(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 400)
	for name, m := range testModels(t) {
		var pregelRuns, mrRuns []*tensor.Matrix
		for _, tu := range tuningPair {
			opts := Options{NumWorkers: 6, PartialGather: true, Parallel: true, Tuning: tu}
			p, err := RunPregel(m, g, opts)
			if err != nil {
				t.Fatalf("%s pregel: %v", name, err)
			}
			// RunMapReduce takes no Options: scope the process tuning.
			prev := tensor.SetTuning(tu)
			mr, err := RunMapReduce(m, g, opts.NumWorkers)
			tensor.SetTuning(prev)
			if err != nil {
				t.Fatalf("%s mapreduce: %v", name, err)
			}
			pregelRuns = append(pregelRuns, p.Logits)
			mrRuns = append(mrRuns, mr.Logits)
		}
		if !pregelRuns[0].Equal(pregelRuns[1]) {
			t.Fatalf("%s: RunPregel logits differ between Workers:1 and Workers:8", name)
		}
		if !mrRuns[0].Equal(mrRuns[1]) {
			t.Fatalf("%s: RunMapReduce logits differ between Workers:1 and Workers:8", name)
		}
	}
}

// TestOptionsTuningScoped asserts a run's Tuning override is restored after
// the run, so it cannot leak into unrelated work.
func TestOptionsTuningScoped(t *testing.T) {
	prev := tensor.SetTuning(tensor.Tuning{Workers: 2, BlockSize: 32})
	defer tensor.SetTuning(prev)

	g := testGraph(t, datagen.SkewNone, 120)
	m := sageModel(t)
	if _, err := RunPregel(m, g, Options{NumWorkers: 3, Tuning: tensor.Tuning{Workers: 5}}); err != nil {
		t.Fatal(err)
	}
	if cur := tensor.CurrentTuning(); cur.Workers != 2 || cur.BlockSize != 32 {
		t.Fatalf("run Tuning leaked: %+v", cur)
	}
}

// TestPooledApplyNodeMatchesApplyNode pins the pooled apply_node of every
// conv to its allocating counterpart, on the same aggregate.
func TestPooledApplyNodeMatchesApplyNode(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 200)
	src, dst := g.EdgeList()
	pool := tensor.NewPool()
	for name, m := range testModels(t) {
		layer := m.Layers[0]
		ctx := &gas.Context{NodeState: g.Features, SrcIndex: src, DstIndex: dst, NumNodes: g.NumNodes}
		rows := ctx.NodeState
		if keepsEmit(layer) {
			// Messages and the receivers' own rows are emitted rows.
			rows = tensor.New(g.NumNodes, emitterOf(layer).MsgDim())
			emitterOf(layer).Emit(rows, ctx.NodeState, nil, pool)
		}
		msg := tensor.GatherRows(rows, ctx.SrcIndex)
		aggr := gas.Gather(layer.Reduce(), msg, ctx.DstIndex, ctx.NumNodes)
		if keepsEmit(layer) {
			aggr.Self = rows
		}
		want := layer.ApplyNode(ctx.NodeState, aggr)
		got := gas.ApplyNodePooled(layer, ctx.NodeState, aggr, pool)
		if !want.Equal(got) {
			t.Fatalf("%s: ApplyNodePooled differs from ApplyNode", name)
		}
		pool.Put(got)
		// Second round through the (now warm) pool must still match.
		got2 := gas.ApplyNodePooled(layer, ctx.NodeState, aggr, pool)
		if !want.Equal(got2) {
			t.Fatalf("%s: ApplyNodePooled differs on reused buffers", name)
		}
	}
}
