package inference

import (
	"testing"
	"testing/quick"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

func ginModel(t *testing.T) *gas.Model {
	t.Helper()
	return gas.NewGINModel("gin-test", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(7))
}

func gcnModel(t *testing.T) *gas.Model {
	t.Helper()
	return gas.NewGCNModel("gcn-test", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(8))
}

func TestGINBothBackendsMatchReference(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := ginModel(t)
	for name, run := range map[string]func(*gas.Model, *graph.Graph, Options) (*Result, error){
		"pregel": RunPregel, "mapreduce": mapReduce,
	} {
		res, err := run(m, g, Options{NumWorkers: 6})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ReferenceForward(m, g)
		if !res.Logits.AllClose(want, logitTol) {
			t.Fatalf("%s GIN diverges: %v", name, res.Logits.MaxAbsDiff(want))
		}
	}
}

func TestGCNBothBackendsMatchReference(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := gcnModel(t)
	for name, run := range map[string]func(*gas.Model, *graph.Graph, Options) (*Result, error){
		"pregel": RunPregel, "mapreduce": mapReduce,
	} {
		res, err := run(m, g, Options{NumWorkers: 6})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ReferenceForward(m, g)
		if !res.Logits.AllClose(want, logitTol) {
			t.Fatalf("%s GCN diverges: %v", name, res.Logits.MaxAbsDiff(want))
		}
	}
}

func TestGCNStrategiesResultNeutralIncludingShadow(t *testing.T) {
	// The hard case: GCN's wire message is degree-scaled, and shadow mirrors
	// carry only a share of the out-edges — the driver must scale by the
	// *original* degree or results shift.
	g := testGraph(t, datagen.SkewOut, 400)
	m := gcnModel(t)
	want := ReferenceForward(m, g)
	for _, opts := range []Options{
		{NumWorkers: 6, ShadowNodes: true},
		{NumWorkers: 6, ShadowNodes: true, Broadcast: true, PartialGather: true},
		{NumWorkers: 6, Broadcast: true, HubThreshold: 10},
	} {
		res, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !res.Logits.AllClose(want, logitTol) {
			t.Fatalf("GCN strategies %+v changed results: %v", opts, res.Logits.MaxAbsDiff(want))
		}
	}
}

func TestGINPartialGatherCombines(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 300)
	m := ginModel(t)
	pg, err := RunPregel(m, g, Options{NumWorkers: 4, PartialGather: true})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Stats.CombinedAway == 0 {
		t.Fatal("GIN (sum) messages must combine under partial-gather")
	}
	want := ReferenceForward(m, g)
	if !pg.Logits.AllClose(want, logitTol) {
		t.Fatal("partial-gather changed GIN results")
	}
}

// TestRandomGraphEquivalenceProperty is the property-based end-to-end check:
// for random small graphs and random architectures, the Pregel driver with
// random strategy combinations and the MapReduce driver at the same worker
// count match the reference forward.
func TestRandomGraphEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 20 + rng.Intn(60)
		b := graph.NewBuilder(n)
		e := rng.Intn(n * 4)
		for i := 0; i < e; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), nil)
		}
		g := b.Build()
		feats := tensor.New(n, 5)
		rng.Uniform(feats, -1, 1)
		g.Features = feats
		g.NumClasses = 3

		var m *gas.Model
		switch rng.Intn(4) {
		case 0:
			m = gas.NewSAGEModel("p", gas.TaskSingleLabel, 5, 6, 3, 1+rng.Intn(2), 0, rng)
		case 1:
			m = gas.NewGATModel("p", gas.TaskSingleLabel, 5, 3, 2, 3, 1+rng.Intn(2), rng)
		case 2:
			m = gas.NewGINModel("p", gas.TaskSingleLabel, 5, 6, 3, 1+rng.Intn(2), rng)
		default:
			m = gas.NewGCNModel("p", gas.TaskSingleLabel, 5, 6, 3, 1+rng.Intn(2), rng)
		}
		opts := Options{
			NumWorkers:    1 + rng.Intn(5),
			PartialGather: rng.Intn(2) == 0,
			Broadcast:     rng.Intn(2) == 0,
			ShadowNodes:   rng.Intn(2) == 0,
			HubThreshold:  1 + rng.Intn(10),
		}
		want := ReferenceForward(m, g)
		p, err := RunPregel(m, g, opts)
		if err != nil {
			t.Logf("seed %d pregel: %v", seed, err)
			return false
		}
		if !p.Logits.AllClose(want, 1e-3) {
			t.Logf("seed %d pregel diff %v opts %+v", seed, p.Logits.MaxAbsDiff(want), opts)
			return false
		}
		mr, err := RunMapReduce(m, g, opts.NumWorkers)
		if err != nil {
			t.Logf("seed %d mr: %v", seed, err)
			return false
		}
		if !mr.Logits.AllClose(want, 1e-3) {
			t.Logf("seed %d mr diff %v opts %+v", seed, mr.Logits.MaxAbsDiff(want), opts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
