package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// Identity tests for the batched compute plane, the Pregel driver's one GNN
// plane. Wherever the fold order is the reference forward's — no
// partial-gather, whose sender-side combiner regroups float sums per sending
// worker, and no shadow rewrite, which moves a hub's messages behind every
// original source — its logits are ReferenceForward's bit for bit, at every
// worker count, serial and parallel. Everywhere else they agree with the
// reference and the MapReduce driver to the standing tolerance, and the
// predicted classes match exactly.

// exactOrder reports whether opts keeps the reference forward's fold order.
func exactOrder(o Options) bool { return !o.PartialGather && !o.ShadowNodes }

// runSerialParallel runs opts serially and in parallel, requires the two
// runs to agree bit for bit in logits and in every traffic count, and
// returns the serial run.
func runSerialParallel(t *testing.T, m *gas.Model, g *graph.Graph, opts Options) *Result {
	t.Helper()
	opts.Parallel = false
	serial, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatalf("%s serial: %v", comboName(opts), err)
	}
	opts.Parallel = true
	par, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatalf("%s parallel: %v", comboName(opts), err)
	}
	requireSameRun(t, comboName(opts)+" serial vs parallel", serial, par)
	return serial
}

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

// requireReference checks res against the reference forward's logits ref:
// bit for bit when exact, else to logitTol; the classes always exactly.
func requireReference(t *testing.T, label string, res *Result, ref *tensor.Matrix, exact bool) {
	t.Helper()
	if exact {
		assertBitIdentical(t, label, res.Logits, ref)
	} else if !res.Logits.AllClose(ref, logitTol) {
		t.Fatalf("%s: logits diverge from the reference: max diff %v", label, res.Logits.MaxAbsDiff(ref))
	}
	want := tensor.ArgmaxRows(ref)
	for v, c := range res.Classes {
		if c != want[v] {
			t.Fatalf("%s: class of node %d = %d, reference %d", label, v, c, want[v])
		}
	}
}

func TestBatchedPlaneBitIdenticalAllStrategies(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 230)
	m := sageModel(t)
	ref := ReferenceForward(m, g)
	mr, err := RunMapReduce(m, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, opts := range strategyCombos(workers, false) {
			res := runSerialParallel(t, m, g, opts)
			requireReference(t, comboName(opts), res, ref, exactOrder(opts))
			// MapReduce folds each key group in shuffle-sort order, not
			// Pregel's sender-worker delivery order, so agreement between
			// the drivers is the repo's standing AllClose contract (see
			// TestBackendsAgree).
			if !res.Logits.AllClose(mr.Logits, logitTol) {
				t.Fatalf("%s: logits diverge from MapReduce: max diff %v",
					comboName(opts), res.Logits.MaxAbsDiff(mr.Logits))
			}
		}
	}
}

// TestBatchedPlaneFlopAccountingMatches: the batched plane's one AddCost per
// worker per superstep must sum to exactly the analytic charge. Without
// partial-gather, worker w pays layerNodeFlops per owned vertex and
// layerMsgFlops per in-edge of an owned vertex, per layer; with it, combined
// messages are charged at the sender instead, so only the total is fixed.
func TestBatchedPlaneFlopAccountingMatches(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 190)
	m := sageModel(t)
	var nodeFlops, msgFlops int64
	for _, l := range m.Layers {
		nodeFlops += layerNodeFlops(l)
		msgFlops += layerMsgFlops(l)
	}
	opts := Options{NumWorkers: 4, Parallel: true}
	res, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	part := opts.withDefaults().partition(g)
	want := make([]int64, opts.NumWorkers)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		want[part.WorkerFor(v)] += nodeFlops + int64(g.InDegree(v))*msgFlops
	}
	for w, f := range res.Stats.WorkerFlops {
		if f != want[w] {
			t.Fatalf("worker %d flops %d, analytic %d", w, f, want[w])
		}
	}

	opts.PartialGather = true
	res, err = RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CombinedAway == 0 {
		t.Fatal("nothing was combined")
	}
	var total int64
	for _, f := range res.Stats.WorkerFlops {
		total += f
	}
	if wantTotal := int64(g.NumNodes)*nodeFlops + int64(g.NumEdges)*msgFlops; total != wantTotal {
		t.Fatalf("partial-gather flops %d, analytic %d", total, wantTotal)
	}
}

// TestBatchedPlaneGAT covers the union-reduce path: the whole partition's
// emitted rows flow into attention once per worker. Union messages never
// combine, so partial-gather keeps the reference order too.
func TestBatchedPlaneGAT(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 180)
	m := gatModel(t)
	ref := ReferenceForward(m, g)
	for _, workers := range []int{1, 4, 8} {
		for _, opts := range []Options{
			{NumWorkers: workers},
			{NumWorkers: workers, PartialGather: true},
			{NumWorkers: workers, Broadcast: true, ShadowNodes: true},
		} {
			res := runSerialParallel(t, m, g, opts)
			requireReference(t, comboName(opts), res, ref, !opts.ShadowNodes)
		}
	}
}

// TestBatchedPlaneGCN covers the degree-scaled scatter (gas.Emitter
// scratch row) and the count-normalized apply across whole partitions.
func TestBatchedPlaneGCN(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 200)
	m := gcnModel(t)
	ref := ReferenceForward(m, g)
	for _, opts := range []Options{
		{NumWorkers: 1},
		{NumWorkers: 4, Broadcast: true},
		{NumWorkers: 4, PartialGather: true},
		{NumWorkers: 8, PartialGather: true, Broadcast: true, ShadowNodes: true},
	} {
		res := runSerialParallel(t, m, g, opts)
		requireReference(t, comboName(opts), res, ref, exactOrder(opts))
	}
}

// TestBatchedPlaneEdgeFeatures covers the edge-dependent apply_edge scatter
// from slab rows.
func TestBatchedPlaneEdgeFeatures(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "batch-ef", Nodes: 170, AvgDegree: 5, Skew: datagen.SkewOut,
		FeatureDim: 6, NumClasses: 3, Seed: 41, EdgeFeature: true,
	})
	m := gas.NewSAGEModel("sage-batch-ef", gas.TaskSingleLabel, 6, 8, 3, 2, 4, tensor.NewRNG(42))
	ref := ReferenceForward(m, ds.Graph)
	for _, opts := range []Options{
		{NumWorkers: 1},
		{NumWorkers: 4},
		{NumWorkers: 4, PartialGather: true},
		{NumWorkers: 8, PartialGather: true, ShadowNodes: true},
	} {
		res := runSerialParallel(t, m, ds.Graph, opts)
		requireReference(t, comboName(opts), res, ref, exactOrder(opts))
	}
}

// TestBatchedEmbeddingsMatchReference: the retained penultimate slab
// matches the reference forward's penultimate state, and is bit-identical
// across worker counts, serial and parallel; for a one-layer
// model it is the raw feature row.
func TestBatchedEmbeddingsMatchReference(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 140)
	for _, m := range []*gas.Model{
		sageModel(t),
		gas.NewSAGEModel("sage-1l", gas.TaskSingleLabel, 8, 12, 4, 1, 0, tensor.NewRNG(9)),
	} {
		var first *tensor.Matrix
		for _, opts := range []Options{
			{NumWorkers: 1},
			{NumWorkers: 5, Parallel: true},
		} {
			opts.EmitEmbeddings = true
			res, err := RunPregel(m, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/w%d", m.Name, opts.NumWorkers)
			if first == nil {
				first = res.Embeddings
				if m.NumLayers() == 1 {
					assertBitIdentical(t, label, first, g.Features)
				} else if want := referenceEmbeddings(m, g); !first.AllClose(want, logitTol) {
					t.Fatalf("%s: embeddings diverge from the reference: max diff %v", label, first.MaxAbsDiff(want))
				}
				continue
			}
			assertBitIdentical(t, label, res.Embeddings, first)
		}
	}
}

// TestBatchedRecoveryByteIdentical: a batched run that loses a superstep to
// an injected worker crash must replay from the checkpoint to byte-identical
// predictions — which requires the engine to snapshot and restore the
// driver's per-worker state slabs through ProgramStater.
func TestBatchedRecoveryByteIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 210)
	m := sageModel(t)
	for _, opts := range []Options{
		{NumWorkers: 4, PartialGather: true, Parallel: true},
		{NumWorkers: 3, Broadcast: true, ShadowNodes: true},
	} {
		clean, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatalf("%s clean: %v", comboName(opts), err)
		}
		for fail := 1; fail <= m.NumLayers(); fail++ {
			crashed := opts
			crashed.CheckpointEvery = 1
			crashed.Faults = crashBefore(fail)
			rec, err := RunPregel(m, g, crashed)
			if err != nil {
				t.Fatalf("%s fail@%d: %v", comboName(opts), fail, err)
			}
			if !clean.Logits.Equal(rec.Logits) {
				t.Fatalf("%s: logits diverge after recovery from superstep-%d crash: max diff %v",
					comboName(opts), fail, clean.Logits.MaxAbsDiff(rec.Logits))
			}
		}
	}
}

// TestBatchedEmbeddingsSurviveRecovery: a crash on the final superstep
// replays the embedding retention too.
func TestBatchedEmbeddingsSurviveRecovery(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 130)
	m := sageModel(t)
	opts := Options{NumWorkers: 4, EmitEmbeddings: true}
	clean, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	crashed := opts
	crashed.CheckpointEvery = 1
	crashed.Faults = crashBefore(m.NumLayers()) // final superstep lost and replayed
	rec, err := RunPregel(m, g, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Logits.Equal(rec.Logits) || !clean.Embeddings.Equal(rec.Embeddings) {
		t.Fatal("batched embeddings diverge after final-superstep recovery")
	}
}

// TestGATEmitSurvivesRecovery: the rows a GAT owner emits at scatter and
// reads back at its next apply — the driver's kept slab — are program
// state, so an in-process crash replay must restore them to byte-identical
// logits.
func TestGATEmitSurvivesRecovery(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 180)
	m := gatModel(t)
	for _, opts := range []Options{
		{NumWorkers: 4, Parallel: true, Broadcast: true},
		{NumWorkers: 3},
	} {
		clean, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatalf("%s clean: %v", comboName(opts), err)
		}
		for fail := 1; fail <= m.NumLayers(); fail++ {
			crashed := opts
			crashed.CheckpointEvery = 1
			crashed.Faults = crashBefore(fail)
			rec, err := RunPregel(m, g, crashed)
			if err != nil {
				t.Fatalf("%s fail@%d: %v", comboName(opts), fail, err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s fail@%d", comboName(opts), fail), rec.Logits, clean.Logits)
		}
	}
}
