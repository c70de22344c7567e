package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// Plane-equivalence tests for the batched compute plane: partition-centric
// ComputeBatch supersteps are a pure dispatch/fusion change, so against the
// per-vertex plane (columnar and boxed) and the MapReduce backend they must
// produce bit-identical logits — tensor.Matrix.Equal, not AllClose — plus
// identical IO accounting, under every strategy combination, at every worker
// count, serial and parallel.

// runPlanes runs the same options on the three Pregel planes, returning
// (batched, per-vertex columnar, boxed).
func runPlanes(t *testing.T, m *gas.Model, g *graph.Graph, opts Options) (*Result, *Result, *Result) {
	t.Helper()
	batched, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatalf("%s batched: %v", comboName(opts), err)
	}
	pv := opts
	pv.PerVertexCompute = true
	perVertex, err := RunPregel(m, g, pv)
	if err != nil {
		t.Fatalf("%s per-vertex: %v", comboName(opts), err)
	}
	bx := opts
	bx.BoxedMessages = true
	boxed, err := RunPregel(m, g, bx)
	if err != nil {
		t.Fatalf("%s boxed: %v", comboName(opts), err)
	}
	return batched, perVertex, boxed
}

func TestBatchedPlaneBitIdenticalAllStrategies(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 230)
	m := sageModel(t)
	wantClasses := tensor.ArgmaxRows(ReferenceForward(m, g))
	mr, err := RunMapReduce(m, g, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, parallel := range []bool{false, true} {
			for _, opts := range strategyCombos(workers, parallel) {
				batched, perVertex, boxed := runPlanes(t, m, g, opts)
				if !batched.Logits.Equal(perVertex.Logits) {
					t.Fatalf("%s: batched logits diverge from per-vertex: max diff %v",
						comboName(opts), batched.Logits.MaxAbsDiff(perVertex.Logits))
				}
				if !batched.Logits.Equal(boxed.Logits) {
					t.Fatalf("%s: batched logits diverge from boxed: max diff %v",
						comboName(opts), batched.Logits.MaxAbsDiff(boxed.Logits))
				}
				// MapReduce folds each key group in shuffle-sort order, not
				// Pregel's sender-worker delivery order, so cross-backend
				// agreement is the repo's standing AllClose contract (see
				// TestBackendsAgree) — predicted classes still match exactly.
				if !batched.Logits.AllClose(mr.Logits, logitTol) {
					t.Fatalf("%s: batched logits diverge from MapReduce: max diff %v",
						comboName(opts), batched.Logits.MaxAbsDiff(mr.Logits))
				}
				bs, ps := batched.Stats, perVertex.Stats
				if bs.MessagesSent != ps.MessagesSent || bs.BytesSent != ps.BytesSent ||
					bs.BytesReceived != ps.BytesReceived || bs.CombinedAway != ps.CombinedAway ||
					bs.BroadcastHubs != ps.BroadcastHubs || bs.Supersteps != ps.Supersteps {
					t.Fatalf("%s: stats diverge between compute planes:\nbatched    %+v\nper-vertex %+v",
						comboName(opts), bs, ps)
				}
				for v, c := range batched.Classes {
					if c != wantClasses[v] {
						t.Fatalf("%s: class of node %d = %d, reference %d", comboName(opts), v, c, wantClasses[v])
					}
				}
			}
		}
	}
}

// TestBatchedPlaneFlopAccountingMatches: the batched plane's one AddCost per
// worker per superstep must sum to exactly what the per-vertex plane charges
// vertex by vertex, per worker.
func TestBatchedPlaneFlopAccountingMatches(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 190)
	m := sageModel(t)
	opts := Options{NumWorkers: 4, PartialGather: true, Parallel: true}
	batched, perVertex, _ := runPlanes(t, m, g, opts)
	for w := range batched.Stats.WorkerFlops {
		if batched.Stats.WorkerFlops[w] != perVertex.Stats.WorkerFlops[w] {
			t.Fatalf("worker %d flops: batched %d, per-vertex %d",
				w, batched.Stats.WorkerFlops[w], perVertex.Stats.WorkerFlops[w])
		}
		if batched.Stats.WorkerBytesIn[w] != perVertex.Stats.WorkerBytesIn[w] ||
			batched.Stats.WorkerInRecords[w] != perVertex.Stats.WorkerInRecords[w] {
			t.Fatalf("worker %d IO diverges between planes", w)
		}
	}
}

// TestBatchedPlaneGAT covers the union-reduce path: the whole partition's
// raw messages flow into one flat matrix with local destination indices and
// attention runs once per worker instead of once per vertex.
func TestBatchedPlaneGAT(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 180)
	m := gatModel(t)
	wantClasses := tensor.ArgmaxRows(ReferenceForward(m, g))
	for _, workers := range []int{1, 4, 8} {
		for _, opts := range []Options{
			{NumWorkers: workers},
			{NumWorkers: workers, PartialGather: true, Parallel: true},
			{NumWorkers: workers, Broadcast: true, ShadowNodes: true, Parallel: true},
		} {
			batched, perVertex, boxed := runPlanes(t, m, g, opts)
			if !batched.Logits.Equal(perVertex.Logits) || !batched.Logits.Equal(boxed.Logits) {
				t.Fatalf("%s: GAT batched logits diverge from per-vertex/boxed", comboName(opts))
			}
			for v, c := range batched.Classes {
				if c != wantClasses[v] {
					t.Fatalf("%s: GAT class of node %d = %d, reference %d", comboName(opts), v, c, wantClasses[v])
				}
			}
		}
	}
}

// TestBatchedPlaneGCN covers the degree-scaled scatter (gas.Emitter
// scratch row) and the count-normalized apply across whole partitions.
func TestBatchedPlaneGCN(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 200)
	m := gcnModel(t)
	for _, opts := range []Options{
		{NumWorkers: 1},
		{NumWorkers: 4, PartialGather: true},
		{NumWorkers: 8, PartialGather: true, Broadcast: true, ShadowNodes: true, Parallel: true},
	} {
		batched, perVertex, boxed := runPlanes(t, m, g, opts)
		if !batched.Logits.Equal(perVertex.Logits) || !batched.Logits.Equal(boxed.Logits) {
			t.Fatalf("%s: GCN batched logits diverge from per-vertex/boxed", comboName(opts))
		}
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
	for _, opts := range []Options{
		{NumWorkers: 1},
		{NumWorkers: 4, PartialGather: true},
		{NumWorkers: 8, PartialGather: true, ShadowNodes: true, Parallel: true},
	} {
		batched, perVertex, boxed := runPlanes(t, m, ds.Graph, opts)
		if !batched.Logits.Equal(perVertex.Logits) || !batched.Logits.Equal(boxed.Logits) {
			t.Fatalf("%s: edge-feature batched logits diverge", comboName(opts))
		}
	}
}

// TestBatchedEmbeddingsMatchPerVertex: the retained penultimate slab must
// reproduce the per-vertex plane's retained h rows exactly, including for a
// one-layer model where the embedding is the raw feature row.
func TestBatchedEmbeddingsMatchPerVertex(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 140)
	for _, m := range []*gas.Model{
		sageModel(t),
		gas.NewSAGEModel("sage-1l", gas.TaskSingleLabel, 8, 12, 4, 1, 0, tensor.NewRNG(9)),
	} {
		opts := Options{NumWorkers: 5, PartialGather: true, EmitEmbeddings: true}
		batched, perVertex, _ := runPlanes(t, m, g, opts)
		if !batched.Embeddings.Equal(perVertex.Embeddings) {
			t.Fatalf("%s: batched embeddings diverge from per-vertex", m.Name)
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
			crashed.FailAtSuperstep = fail
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

// TestPerVertexRecoveryByteIdentical: the checkpoint options must also hold
// on the per-vertex planes, whose next-h slabs are deliberately left
// unrecycled under checkpointing so snapshot aliases stay intact.
func TestPerVertexRecoveryByteIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 160)
	m := sageModel(t)
	for _, plane := range []Options{
		{NumWorkers: 4, PartialGather: true, PerVertexCompute: true},
		{NumWorkers: 4, PartialGather: true, BoxedMessages: true},
	} {
		clean, err := RunPregel(m, g, plane)
		if err != nil {
			t.Fatal(err)
		}
		crashed := plane
		crashed.CheckpointEvery = 1
		crashed.FailAtSuperstep = 2
		rec, err := RunPregel(m, g, crashed)
		if err != nil {
			t.Fatal(err)
		}
		if !clean.Logits.Equal(rec.Logits) {
			t.Fatalf("per-vertex plane (boxed=%v) diverges after recovery: max diff %v",
				plane.BoxedMessages, clean.Logits.MaxAbsDiff(rec.Logits))
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
	crashed.FailAtSuperstep = m.NumLayers() // final superstep lost and replayed
	rec, err := RunPregel(m, g, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Logits.Equal(rec.Logits) || !clean.Embeddings.Equal(rec.Embeddings) {
		t.Fatal("batched embeddings diverge after final-superstep recovery")
	}
}

// TestGATEmitSurvivesRecovery: the rows a GAT owner emits at scatter and
// reads back at its next apply — the batched plane's kept slab, the
// per-vertex planes' kept row — are program state, so an in-process crash
// replay and a durable resume must restore them to byte-identical logits.
func TestGATEmitSurvivesRecovery(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 180)
	m := gatModel(t)
	for _, opts := range []Options{
		{NumWorkers: 4, Parallel: true, Broadcast: true},
		{NumWorkers: 3, PerVertexCompute: true},
		{NumWorkers: 3, BoxedMessages: true},
		{NumWorkers: 4, Parallel: true, Pipelined: true, PipelineChunk: 5},
	} {
		clean, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatalf("%s clean: %v", comboName(opts), err)
		}
		for fail := 1; fail <= m.NumLayers(); fail++ {
			crashed := opts
			crashed.CheckpointEvery = 1
			crashed.FailAtSuperstep = fail
			rec, err := RunPregel(m, g, crashed)
			if err != nil {
				t.Fatalf("%s fail@%d: %v", comboName(opts), fail, err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s fail@%d", comboName(opts), fail), rec.Logits, clean.Logits)
		}
		seeded := opts
		seeded.CheckpointDir, seeded.CheckpointEvery = t.TempDir(), 1
		if _, err := RunPregel(m, g, seeded); err != nil {
			t.Fatalf("%s seed: %v", comboName(opts), err)
		}
		corruptLatestEpoch(t, seeded.CheckpointDir)
		seeded.Resume = true
		res, err := RunPregel(m, g, seeded)
		if err != nil || !res.Stats.Resumed {
			t.Fatalf("%s resume: resumed=%v err=%v", comboName(opts), err == nil && res.Stats.Resumed, err)
		}
		assertBitIdentical(t, comboName(opts)+" resume", res.Logits, clean.Logits)
	}
}
