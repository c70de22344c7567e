package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// testSetup builds a small skewed dataset and both model types.
func testGraph(t *testing.T, skew datagen.Skew, nodes int) *graph.Graph {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "test", Nodes: nodes, AvgDegree: 6, Skew: skew, Exponent: 1.7,
		FeatureDim: 8, NumClasses: 4, TrainFrac: 0.3, ValFrac: 0.1, Seed: 77,
	})
	return ds.Graph
}

func sageModel(t *testing.T) *gas.Model {
	t.Helper()
	return gas.NewSAGEModel("sage-test", gas.TaskSingleLabel, 8, 12, 4, 2, 0, tensor.NewRNG(5))
}

func gatModel(t *testing.T) *gas.Model {
	t.Helper()
	return gas.NewGATModel("gat-test", gas.TaskSingleLabel, 8, 6, 2, 4, 2, tensor.NewRNG(6))
}

const logitTol = 2e-3

// mapReduce adapts RunMapReduce to RunPregel's signature for the tests that
// loop over both drivers. Only the worker count carries over: the MapReduce
// driver always runs hash placement with its partial-gather combiner.
func mapReduce(m *gas.Model, g *graph.Graph, o Options) (*Result, error) {
	return RunMapReduce(m, g, o.NumWorkers)
}

func assertMatchesReference(t *testing.T, m *gas.Model, g *graph.Graph, res *Result) {
	t.Helper()
	want := ReferenceForward(m, g)
	if !res.Logits.AllClose(want, logitTol) {
		t.Fatalf("logits diverge from reference: max diff %v", res.Logits.MaxAbsDiff(want))
	}
	wantClasses := tensor.ArgmaxRows(want)
	for v, c := range res.Classes {
		if c != wantClasses[v] {
			t.Fatalf("class of node %d = %d, reference %d", v, c, wantClasses[v])
		}
	}
}

func TestPregelMatchesReferenceSAGE(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := sageModel(t)
	res, err := RunPregel(m, g, Options{NumWorkers: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, m, g, res)
}

func TestPregelMatchesReferenceGAT(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := gatModel(t)
	res, err := RunPregel(m, g, Options{NumWorkers: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, m, g, res)
}

func TestMapReduceMatchesReferenceSAGE(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := sageModel(t)
	res, err := RunMapReduce(m, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, m, g, res)
}

func TestMapReduceMatchesReferenceGAT(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := gatModel(t)
	res, err := RunMapReduce(m, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, m, g, res)
}

func TestBackendsAgree(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 250)
	m := sageModel(t)
	a, err := RunPregel(m, g, Options{NumWorkers: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMapReduce(m, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Logits.AllClose(b.Logits, logitTol) {
		t.Fatalf("backends diverge: %v", a.Logits.MaxAbsDiff(b.Logits))
	}
}

func TestStrategiesAreResultNeutral(t *testing.T) {
	// Invariant 3 of DESIGN.md: strategies change traffic, never results.
	g := testGraph(t, datagen.SkewOut, 300)
	for name, m := range map[string]*gas.Model{"sage": sageModel(t), "gat": gatModel(t)} {
		base, err := RunPregel(m, g, Options{NumWorkers: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{NumWorkers: 6, PartialGather: true},
			{NumWorkers: 6, Broadcast: true},
			{NumWorkers: 6, ShadowNodes: true},
			{NumWorkers: 6, PartialGather: true, Broadcast: true},
			{NumWorkers: 6, PartialGather: true, ShadowNodes: true},
			{NumWorkers: 6, Broadcast: true, ShadowNodes: true},
			{NumWorkers: 6, PartialGather: true, Broadcast: true, ShadowNodes: true},
		} {
			res, err := RunPregel(m, g, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !res.Logits.AllClose(base.Logits, logitTol) {
				t.Fatalf("%s strategies %+v changed results: %v", name, opts, res.Logits.MaxAbsDiff(base.Logits))
			}
		}
	}
}

func TestConsistencyAcrossRuns(t *testing.T) {
	// The headline guarantee: repeated runs are bit-identical.
	g := testGraph(t, datagen.SkewIn, 200)
	m := gatModel(t)
	opts := Options{NumWorkers: 4, PartialGather: true, Broadcast: true}
	a, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Logits.Equal(b.Logits) {
		t.Fatal("repeated runs must be bit-identical")
	}
	c, err := RunMapReduce(m, g, opts.NumWorkers)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunMapReduce(m, g, opts.NumWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Logits.Equal(d.Logits) {
		t.Fatal("repeated MR runs must be bit-identical")
	}
}

func TestWorkerCountDoesNotChangePredictions(t *testing.T) {
	// The source-merged barrier makes this bit-level, not tolerance-level:
	// every destination folds its inbox in ascending source order no matter
	// how vertices are spread over workers.
	g := testGraph(t, datagen.SkewIn, 200)
	m := sageModel(t)
	var ref *Result
	for _, workers := range []int{1, 3, 8} {
		res, err := RunPregel(m, g, Options{NumWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !res.Logits.Equal(ref.Logits) {
			t.Fatalf("worker count %d changed logits: %v", workers, res.Logits.MaxAbsDiff(ref.Logits))
		}
	}
}

func TestParallelExecutionIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 200)
	m := sageModel(t)
	seq, err := RunPregel(m, g, Options{NumWorkers: 6, Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPregel(m, g, Options{NumWorkers: 6, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Logits.Equal(par.Logits) {
		t.Fatal("parallel execution must be bit-identical")
	}
}

func TestEdgeFeatureModelMatchesReference(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "ef", Nodes: 200, AvgDegree: 5, Skew: datagen.SkewNone,
		FeatureDim: 6, NumClasses: 3, Seed: 9, EdgeFeature: true,
	})
	g := ds.Graph
	m := gas.NewSAGEModel("sage-ef", gas.TaskSingleLabel, 6, 8, 3, 2, 4, tensor.NewRNG(10))
	for _, backend := range []func(*gas.Model, *graph.Graph, Options) (*Result, error){RunPregel, mapReduce} {
		res, err := backend(m, g, Options{NumWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceForward(m, g)
		if !res.Logits.AllClose(want, logitTol) {
			t.Fatalf("edge-feature model diverges: %v", res.Logits.MaxAbsDiff(want))
		}
	}
}

func TestMultiLabelPredictions(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 150)
	m := gas.NewSAGEModel("ml", gas.TaskMultiLabel, 8, 8, 4, 2, 0, tensor.NewRNG(11))
	res, err := RunPregel(m, g, Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MultiLabel == nil || res.Classes != nil {
		t.Fatal("multi-label task must produce a binary matrix")
	}
	want := ReferenceForward(m, g)
	for i, v := range want.Data {
		got := res.MultiLabel.Data[i]
		if (v > logitTol && got != 1) || (v < -logitTol && got != 0) {
			t.Fatalf("multilabel bit %d = %v for logit %v", i, got, v)
		}
	}
}

func TestPhasesShapeAndAccounting(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 200)
	m := sageModel(t)
	res, err := RunPregel(m, g, Options{NumWorkers: 5})
	if err != nil {
		t.Fatal(err)
	}
	// K layers + init superstep.
	if len(res.Phases) != m.NumLayers()+1 {
		t.Fatalf("phases = %d, want %d", len(res.Phases), m.NumLayers()+1)
	}
	for _, ph := range res.Phases {
		if len(ph.Workers) != 5 {
			t.Fatalf("phase %s has %d workers", ph.Name, len(ph.Workers))
		}
	}
	if res.Stats.MessagesSent == 0 || res.Stats.BytesSent == 0 {
		t.Fatal("stats not collected")
	}
	mres, err := RunMapReduce(m, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Map phase + K rounds.
	if len(mres.Phases) != m.NumLayers()+1 {
		t.Fatalf("MR phases = %d, want %d", len(mres.Phases), m.NumLayers()+1)
	}
}

func TestPartialGatherReducesMessages(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 400)
	m := sageModel(t)
	base, err := RunPregel(m, g, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := RunPregel(m, g, Options{NumWorkers: 4, PartialGather: true})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Stats.MessagesSent >= base.Stats.MessagesSent {
		t.Fatalf("partial-gather did not reduce messages: %d vs %d",
			pg.Stats.MessagesSent, base.Stats.MessagesSent)
	}
	if pg.Stats.CombinedAway == 0 {
		t.Fatal("no combining recorded")
	}
}

func TestPartialGatherNoOpForUnionLayers(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 200)
	m := gatModel(t)
	base, err := RunPregel(m, g, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := RunPregel(m, g, Options{NumWorkers: 4, PartialGather: true})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Stats.CombinedAway != 0 {
		t.Fatal("GAT (union) messages must not be combined")
	}
	if pg.Stats.MessagesSent != base.Stats.MessagesSent {
		t.Fatal("message count should be unchanged for union layers")
	}
}

func TestBroadcastReducesBytesOnOutSkew(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 500)
	m := sageModel(t)
	opts := Options{NumWorkers: 4, HubThreshold: 20}
	base, err := RunPregel(m, g, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := RunPregel(m, g, Options{NumWorkers: opts.NumWorkers, Broadcast: true, HubThreshold: opts.HubThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Stats.BroadcastHubs == 0 {
		t.Fatal("no hubs took the broadcast path")
	}
	if bc.Stats.BytesSent >= base.Stats.BytesSent {
		t.Fatalf("broadcast did not reduce bytes: %d vs %d", bc.Stats.BytesSent, base.Stats.BytesSent)
	}
}

func TestShadowNodesFlattenOutDegree(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 500)
	threshold := 15
	sg := BuildShadowGraph(g, threshold)
	if sg.Mirrors == 0 {
		t.Fatal("expected mirrors on an out-skewed graph")
	}
	if err := sg.G.Validate(); err != nil {
		t.Fatal(err)
	}
	before := graph.OutDegreeStats(g)
	after := graph.OutDegreeStats(sg.G)
	// The max out-degree must collapse toward the threshold. Duplicated
	// in-edge copies add a few out-edges elsewhere (the paper's stated
	// overhead), so the bound is loose, not exact.
	if after.Max >= before.Max/2 {
		t.Fatalf("shadow max out-degree %d did not collapse from %d", after.Max, before.Max)
	}
	// Every original hub's own out-edge share is within the threshold.
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if g.OutDegree(v) > threshold && sg.G.OutDegree(v) > g.OutDegree(v) {
			t.Fatalf("hub %d kept more out-edges than before", v)
		}
	}
}

func TestShadowGraphPreservesInEdgesPerMirror(t *testing.T) {
	b := graph.NewBuilder(5)
	// Node 0 is a hub: out-edges to 1,2,3,4; node 1 points at 0.
	for v := int32(1); v < 5; v++ {
		b.AddEdge(0, v, nil)
	}
	b.AddEdge(1, 0, nil)
	g := b.Build()
	g.Features = tensor.New(5, 2)
	for v := 0; v < 5; v++ {
		g.Features.Set(v, 0, float32(v))
	}
	sg := BuildShadowGraph(g, 2) // hub 0 splits into ceil(4/2)=2 groups → 1 mirror
	if sg.Mirrors != 1 {
		t.Fatalf("mirrors = %d, want 1", sg.Mirrors)
	}
	mirror := int32(5)
	if sg.Origin[mirror] != 0 {
		t.Fatalf("mirror origin = %d", sg.Origin[mirror])
	}
	// The mirror must have the same in-edges as the original (from node 1).
	if sg.G.InDegree(mirror) != g.InDegree(0) {
		t.Fatalf("mirror in-degree %d, original %d", sg.G.InDegree(mirror), g.InDegree(0))
	}
	// Out-edges are split: 2 + 2.
	if sg.G.OutDegree(0)+sg.G.OutDegree(mirror) != 4 {
		t.Fatalf("split out-degrees = %d + %d", sg.G.OutDegree(0), sg.G.OutDegree(mirror))
	}
	// Features are duplicated.
	if sg.G.Features.At(int(mirror), 0) != 0 {
		t.Fatal("mirror features must copy the original's")
	}
}

func TestIdentityShadowIsNoOp(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 50)
	sg := IdentityShadow(g)
	if sg.G != g || sg.Mirrors != 0 || sg.NumOriginal != 50 {
		t.Fatal("IdentityShadow must wrap unchanged")
	}
}

func TestValidateModelGraphMismatch(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 50)
	bad := gas.NewSAGEModel("bad", gas.TaskSingleLabel, 99, 8, 4, 2, 0, tensor.NewRNG(1))
	if _, err := RunPregel(bad, g, Options{NumWorkers: 2}); err == nil {
		t.Fatal("dim mismatch must error")
	}
	if _, err := RunMapReduce(bad, g, 2); err == nil {
		t.Fatal("dim mismatch must error on MR")
	}
}

func TestThresholdHeuristic(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 100)
	o := Options{NumWorkers: 10, Lambda: 0.1}.withDefaults()
	want := graph.StrategyThreshold(0.1, g.NumEdges, 10)
	if o.threshold(g) != want {
		t.Fatalf("threshold = %d, want %d", o.threshold(g), want)
	}
	o2 := Options{NumWorkers: 10, HubThreshold: 42}.withDefaults()
	if o2.threshold(g) != 42 {
		t.Fatal("explicit threshold must win")
	}
}

// TestCombineMsgsSemantics pins the partial-gather combiner: it folds a
// commutative reduce's payload into the accumulator row in place and sums
// the contribution counts, and declines union messages and broadcast refs.
func TestCombineMsgsSemantics(t *testing.T) {
	acc, pay := []float32{1, 2}, []float32{3, 4}
	n, ok := combineColumnar(colTag(msgState, uint8(gas.ReduceMean)), acc, pay, 2, 1)
	if !ok || n != 3 || acc[0] != 4 || acc[1] != 6 {
		t.Fatalf("mean combine = %v count %d ok=%v", acc, n, ok)
	}
	if pay[0] != 3 || pay[1] != 4 {
		t.Fatal("combine mutated its payload (payload views are shared across a fan)")
	}
	mx := []float32{5, 0}
	if _, ok := combineColumnar(colTag(msgState, uint8(gas.ReduceMax)), mx, []float32{1, 9}, 1, 1); !ok || mx[0] != 5 || mx[1] != 9 {
		t.Fatalf("max combine = %v ok=%v", mx, ok)
	}
	u := []float32{1}
	if _, ok := combineColumnar(colTag(msgState, uint8(gas.ReduceUnion)), u, []float32{2}, 1, 1); ok || u[0] != 1 {
		t.Fatal("union messages must not combine")
	}
	if _, ok := combineColumnar(colTag(msgBCRef, uint8(gas.ReduceSum)), nil, nil, 0, 0); ok {
		t.Fatal("refs must not combine")
	}
}

func TestMRCombineSemantics(t *testing.T) {
	vals := []mrVal{
		{Kind: mrSelf, Payload: []float32{9}},
		{Kind: mrMsg, Reduce: uint8(gas.ReduceSum), Count: 1, Payload: []float32{1}},
		{Kind: mrMsg, Reduce: uint8(gas.ReduceSum), Count: 1, Payload: []float32{2}},
		{Kind: mrOutEdges, OutDsts: []int32{1}},
	}
	out := mrCombine(0, vals)
	if len(out) != 3 {
		t.Fatalf("combined to %d records, want 3", len(out))
	}
	var found bool
	for _, v := range out {
		if v.Kind == mrMsg {
			if v.Payload[0] != 3 || v.Count != 2 {
				t.Fatalf("merged msg = %+v", v)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("merged message missing")
	}
	// Union messages must pass through unmerged.
	union := []mrVal{
		{Kind: mrMsg, Reduce: uint8(gas.ReduceUnion), Payload: []float32{1}},
		{Kind: mrMsg, Reduce: uint8(gas.ReduceUnion), Payload: []float32{2}},
	}
	if got := mrCombine(0, union); len(got) != 2 {
		t.Fatalf("union combined to %d records", len(got))
	}
}

func TestSingleWorkerSingleLayer(t *testing.T) {
	// Degenerate corners: 1 worker, 1 layer.
	g := testGraph(t, datagen.SkewNone, 60)
	m := gas.NewSAGEModel("one", gas.TaskSingleLabel, 8, 8, 4, 1, 0, tensor.NewRNG(12))
	for _, run := range []func(*gas.Model, *graph.Graph, Options) (*Result, error){RunPregel, mapReduce} {
		res, err := run(m, g, Options{NumWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceForward(m, g)
		if !res.Logits.AllClose(want, logitTol) {
			t.Fatalf("1-worker 1-layer diverges: %v", res.Logits.MaxAbsDiff(want))
		}
	}
}
