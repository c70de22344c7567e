package inference

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// assertBitIdentical fails unless two matrices are byte-for-byte equal — the
// exact contract the incremental mode promises against a from-scratch pass
// (float equality would let ±0 differences slip through).
func assertBitIdentical(t *testing.T, label string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: bit mismatch at flat index %d: %v != %v (node %d)",
				label, i, got.Data[i], want.Data[i], i/got.Cols)
		}
	}
}

// randomDelta synthesizes one mutation batch: a few feature rewrites, an
// occasional new node wired both ways, an edge addition and (when possible)
// an existing edge's removal.
func randomDelta(rng *tensor.RNG, g *graph.Graph, withNewNodes bool) graph.Delta {
	n := int32(g.NumNodes)
	fdim := g.FeatureDim()
	edim := g.EdgeFeatureDim()
	randRow := func(dim int) []float32 {
		row := make([]float32, dim)
		for i := range row {
			row[i] = rng.Float32()*2 - 1
		}
		return row
	}
	var d graph.Delta
	for i := 0; i < 1+rng.Intn(3); i++ {
		d.Features = append(d.Features, graph.FeatureUpdate{Node: int32(rng.Intn(int(n))), Features: randRow(fdim)})
	}
	if withNewNodes && rng.Intn(3) == 0 {
		d.AddNodes = append(d.AddNodes, graph.NodeAdd{Features: randRow(fdim)})
		d.AddEdges = append(d.AddEdges,
			graph.EdgeAdd{Src: n, Dst: int32(rng.Intn(int(n))), Features: randRow(edim)},
			graph.EdgeAdd{Src: int32(rng.Intn(int(n))), Dst: n, Features: randRow(edim)},
		)
	}
	d.AddEdges = append(d.AddEdges, graph.EdgeAdd{
		Src: int32(rng.Intn(int(n))), Dst: int32(rng.Intn(int(n))), Features: randRow(edim),
	})
	if g.NumEdges > 0 && rng.Intn(2) == 0 {
		src, dst := g.EdgeList()
		e := rng.Intn(g.NumEdges)
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgeKey{Src: src[e], Dst: dst[e]})
	}
	return d
}

func sessionTestGraph(seed int64, edgeFeatures bool) *graph.Graph {
	return datagen.Generate(datagen.Config{
		Name: "sess", Nodes: 90, AvgDegree: 5, Skew: datagen.SkewIn, Exponent: 1.6,
		FeatureDim: 6, NumClasses: 3, Seed: seed, EdgeFeature: edgeFeatures,
	}).Graph
}

// TestSessionDeltaMatchesScratch is the property test of the incremental
// mode: random mutation batches followed by delta refreshes stay bit-
// identical to a from-scratch full pass on the mutated graph, across models
// (degree-scaled GCN, GIN, SAGE with edge-dependent messages, GAT's emitted
// rows), serial and parallel, and worker counts.
func TestSessionDeltaMatchesScratch(t *testing.T) {
	models := map[string]*gas.Model{
		"gcn":     gas.NewGCNModel("s-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(21)),
		"gin":     gas.NewGINModel("s-gin", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(22)),
		"sage-ef": gas.NewSAGEModel("s-sage", gas.TaskSingleLabel, 6, 9, 3, 2, 4, tensor.NewRNG(23)),
		"gat":     gas.NewGATModel("s-gat", gas.TaskSingleLabel, 6, 4, 2, 3, 2, tensor.NewRNG(24)),
	}
	planes := []Options{
		{NumWorkers: 1},
		{NumWorkers: 3, Parallel: true},
		{NumWorkers: 3},
	}
	seed := int64(100)
	for name, m := range models {
		for _, opts := range planes {
			seed++
			label := fmt.Sprintf("%s/w%d/parallel=%v", name, opts.NumWorkers, opts.Parallel)
			g := sessionTestGraph(seed, true)
			opts.DeltaCutover = 1.1 // never fall back: this test pins the delta path
			sess, err := NewSession(m, g, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if _, kind, err := sess.Refresh(); err != nil || kind != RefreshFull {
				t.Fatalf("%s: first refresh kind=%v err=%v", label, kind, err)
			}
			rng := tensor.NewRNG(seed * 7)
			for batch := 0; batch < 4; batch++ {
				if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
					t.Fatalf("%s batch %d: %v", label, batch, err)
				}
				res, kind, err := sess.Refresh()
				if err != nil {
					t.Fatalf("%s batch %d: %v", label, batch, err)
				}
				if kind != RefreshDelta {
					t.Fatalf("%s batch %d: kind=%v, want delta", label, batch, kind)
				}
				scratch, err := RunPregel(m, sess.Graph(), Options{NumWorkers: opts.NumWorkers})
				if err != nil {
					t.Fatalf("%s batch %d scratch: %v", label, batch, err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s batch %d", label, batch), res.Logits, scratch.Logits)
			}
		}
	}
}

// TestSessionChaosMidDeltaPass injects worker crashes into the middle of a
// delta pass; checkpoint recovery must restore the resident slabs and the
// dirty bookkeeping, leaving the refreshed logits bit-identical to a
// from-scratch pass.
func TestSessionChaosMidDeltaPass(t *testing.T) {
	m := gas.NewGCNModel("chaos-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(33))
	g := sessionTestGraph(7, false)
	sess, err := NewSession(m, g, Options{
		NumWorkers:      3,
		DeltaCutover:    1.1,
		CheckpointEvery: 1,
		Faults: &pregel.FaultPlan{Crashes: []pregel.Fault{
			{Superstep: 1, Point: pregel.FaultAtBarrier},
			{Superstep: 2, Point: pregel.FaultBeforeSuperstep},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(44)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), false)); err != nil {
		t.Fatal(err)
	}
	res, kind, err := sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if kind != RefreshDelta {
		t.Fatalf("kind=%v, want delta", kind)
	}
	if res.Stats.Recoveries == 0 {
		t.Fatal("no recoveries recorded — faults did not fire in the delta pass")
	}
	scratch, err := RunPregel(m, sess.Graph(), Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "chaos", res.Logits, scratch.Logits)
}

// TestSessionCutoverFallsBack pins the cutover heuristic: a tiny cutover
// fraction forces the delta path to fall back to a full pass, which still
// yields bit-identical logits and re-primes the resident state.
func TestSessionCutoverFallsBack(t *testing.T) {
	m := gas.NewGCNModel("cut-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(51))
	g := sessionTestGraph(9, false)
	sess, err := NewSession(m, g, Options{NumWorkers: 2, DeltaCutover: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(52)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), false)); err != nil {
		t.Fatal(err)
	}
	res, kind, err := sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if kind != RefreshFull {
		t.Fatalf("kind=%v, want full under a 1e-9 cutover", kind)
	}
	scratch, err := RunPregel(m, sess.Graph(), Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "cutover full", res.Logits, scratch.Logits)
	// The fallback full pass re-primed resident state: the next delta works.
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), false)); err != nil {
		t.Fatal(err)
	}
	sess.opts.DeltaCutover = 1.1
	res, kind, err = sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if kind != RefreshDelta {
		t.Fatalf("kind=%v, want delta after re-prime", kind)
	}
	scratch, err = RunPregel(m, sess.Graph(), Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "post-fallback delta", res.Logits, scratch.Logits)
}

// TestSessionNoPendingRefresh: refresh without mutations returns the
// resident logits without running any supersteps, as a fresh matrix each
// time (RCU immutability for the serving layer).
func TestSessionNoPendingRefresh(t *testing.T) {
	m := gas.NewGINModel("idle-gin", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(61))
	sess, err := NewSession(m, sessionTestGraph(11, false), Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	second, kind, err := sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if kind != RefreshDelta || second.Stats.Supersteps != 0 {
		t.Fatalf("idle refresh: kind=%v supersteps=%d", kind, second.Stats.Supersteps)
	}
	if first.Logits == second.Logits {
		t.Fatal("idle refresh returned an aliased logits matrix")
	}
	assertBitIdentical(t, "idle", second.Logits, first.Logits)
}

// TestSessionStepActive checks the convergence observable: a full pass
// computes every vertex every superstep, a delta pass starts at the seed
// count and never exceeds the graph.
func TestSessionStepActive(t *testing.T) {
	m := gas.NewGCNModel("act-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(71))
	g := sessionTestGraph(13, false)
	sess, err := NewSession(m, g, Options{NumWorkers: 2, DeltaCutover: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumNodes)
	if len(full.Stats.StepActive) != m.NumLayers()+1 {
		t.Fatalf("full StepActive len %d, want %d", len(full.Stats.StepActive), m.NumLayers()+1)
	}
	for s, a := range full.Stats.StepActive {
		if a != n {
			t.Fatalf("full pass superstep %d active=%d, want %d", s, a, n)
		}
	}
	if _, err := sess.Mutate(graph.Delta{Features: []graph.FeatureUpdate{{Node: 0, Features: []float32{9, 9, 9, 9, 9, 9}}}}); err != nil {
		t.Fatal(err)
	}
	res, kind, err := sess.Refresh()
	if err != nil || kind != RefreshDelta {
		t.Fatalf("kind=%v err=%v", kind, err)
	}
	if len(res.Stats.StepActive) == 0 || res.Stats.StepActive[0] != 1 {
		t.Fatalf("delta StepActive = %v, want seed count 1 at superstep 0", res.Stats.StepActive)
	}
	for s, a := range res.Stats.StepActive {
		if a > int64(sess.Graph().NumNodes) {
			t.Fatalf("delta superstep %d active=%d exceeds graph", s, a)
		}
	}
}

// TestSessionRejectsUnsupported pins the gating of one-shot-only options.
func TestSessionRejectsUnsupported(t *testing.T) {
	m := gas.NewGCNModel("rej-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(81))
	g := sessionTestGraph(17, false)
	for _, opts := range []Options{
		{PartialGather: true},
		{Broadcast: true},
		{ShadowNodes: true},
		{EmitEmbeddings: true},
		{CheckpointDir: t.TempDir()},
		{Resume: true},
	} {
		if _, err := NewSession(m, g, opts); err == nil {
			t.Fatalf("options %+v not rejected", opts)
		}
	}
}

// TestSessionMutateErrors: an invalid delta leaves the session untouched and
// a later valid mutate+refresh still matches scratch.
func TestSessionMutateErrors(t *testing.T) {
	m := gas.NewGCNModel("err-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(91))
	sess, err := NewSession(m, sessionTestGraph(19, false), Options{NumWorkers: 2, DeltaCutover: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Mutate(graph.Delta{Features: []graph.FeatureUpdate{{Node: 10_000, Features: make([]float32, 6)}}}); err == nil {
		t.Fatal("out-of-range feature update not rejected")
	}
	if sess.Pending() {
		t.Fatal("failed mutate left the session pending")
	}
	rng := tensor.NewRNG(92)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
		t.Fatal(err)
	}
	res, kind, err := sess.Refresh()
	if err != nil || kind != RefreshDelta {
		t.Fatalf("kind=%v err=%v", kind, err)
	}
	scratch, err := RunPregel(m, sess.Graph(), Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "post-error delta", res.Logits, scratch.Logits)
}

// TestSessionDrainOneRebuildBitIdentical is the drain property: 32 batches
// folded into the session and refreshed once must cost one graph rebuild and
// produce logits byte-identical to the same batches refreshed one at a time
// and to RunPregel from scratch on the final graph. The per-batch seed sets
// must survive the single rebuild exactly: every Mutate returns the effect it
// returns when the graph is materialized after each batch, and the union-
// seeded pass computes the same vertices (Stats.StepActive). Covered for a
// degree-scaled model (GCN: the deferred message repair) and an unscaled one
// (SAGE with edge features), serial and Parallel, on the delta path and past
// the cutover.
func TestSessionDrainOneRebuildBitIdentical(t *testing.T) {
	models := map[string]*gas.Model{
		"gcn":     gas.NewGCNModel("dr-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(171)),
		"sage-ef": gas.NewSAGEModel("dr-sage", gas.TaskSingleLabel, 6, 9, 3, 2, 4, tensor.NewRNG(172)),
	}
	const batches = 32
	seed := int64(500)
	for name, m := range models {
		for _, parallel := range []bool{false, true} {
			for _, want := range []RefreshKind{RefreshDelta, RefreshFull} {
				seed++
				label := fmt.Sprintf("%s/parallel=%v/%s", name, parallel, want)
				base := sessionTestGraph(seed, true)
				opts := Options{NumWorkers: 3, Parallel: parallel, DeltaCutover: 1.1}
				if want == RefreshFull {
					opts.DeltaCutover = 1e-9
				}

				// The batch stream, each drawn against the graph it applies to:
				// random rewrites, node adds and edge changes, every fourth batch
				// also removing the edge the previous one added, and one batch no
				// session may accept.
				rng := tensor.NewRNG(seed * 11)
				var deltas []graph.Delta
				final := base
				for i := 0; i < batches; i++ {
					if i == batches/2 {
						deltas = append(deltas, graph.Delta{RemoveEdges: []graph.EdgeKey{{Src: 0, Dst: 0}, {Src: -1, Dst: 0}}})
						continue
					}
					d := randomDelta(rng, final, true)
					if prev := deltas[max(i-1, 0):i]; i%4 == 3 && len(prev) == 1 && len(prev[0].AddEdges) > 0 {
						e := prev[0].AddEdges[len(prev[0].AddEdges)-1]
						d.RemoveEdges = append(d.RemoveEdges, graph.EdgeKey{Src: e.Src, Dst: e.Dst})
					}
					ng, _, err := graph.ApplyDelta(final, d)
					if err != nil {
						t.Fatalf("%s: building batch %d: %v", label, i, err)
					}
					deltas, final = append(deltas, d), ng
				}

				primed := func() *Session {
					s, err := NewSession(m, base, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if _, _, err := s.Refresh(); err != nil {
						t.Fatalf("%s: prime: %v", label, err)
					}
					return s
				}
				// mutate folds every batch in; the one invalid batch must be the
				// only one refused.
				mutate := func(s *Session, after func()) []*graph.DeltaEffect {
					var effs []*graph.DeltaEffect
					for i, d := range deltas {
						eff, err := s.Mutate(d)
						if (err != nil) != (i == batches/2) {
							t.Fatalf("%s: batch %d: err=%v", label, i, err)
						}
						effs = append(effs, eff)
						after()
					}
					return effs
				}

				oneDrain := primed()
				rebuilds := oneDrain.GraphRebuilds()
				drainEffs := mutate(oneDrain, func() {})
				if got := oneDrain.GraphRebuilds(); got != rebuilds {
					t.Fatalf("%s: Mutate rebuilt the graph (%d → %d)", label, rebuilds, got)
				}
				res, kind, err := oneDrain.Refresh()
				if err != nil || kind != want {
					t.Fatalf("%s: drained refresh kind=%v err=%v", label, kind, err)
				}
				if got := oneDrain.GraphRebuilds(); got != rebuilds+1 {
					t.Fatalf("%s: a drain of %d batches cost %d rebuilds, want 1", label, batches, got-rebuilds)
				}

				eachBuilt := primed()
				builtEffs := mutate(eachBuilt, func() { eachBuilt.Graph() })
				for i := range drainEffs {
					if !reflect.DeepEqual(drainEffs[i], builtEffs[i]) {
						t.Fatalf("%s: batch %d effect %+v, want %+v", label, i, drainEffs[i], builtEffs[i])
					}
				}
				union, kind, err := eachBuilt.Refresh()
				if err != nil || kind != want {
					t.Fatalf("%s: union-seeded refresh kind=%v err=%v", label, kind, err)
				}
				if !reflect.DeepEqual(res.Stats.StepActive, union.Stats.StepActive) {
					t.Fatalf("%s: StepActive %v, rebuilt-per-batch session ran %v", label, res.Stats.StepActive, union.Stats.StepActive)
				}
				assertBitIdentical(t, label+" vs rebuilt per batch", res.Logits, union.Logits)

				oneAtATime := primed()
				var last *Result
				mutate(oneAtATime, func() {
					if last, _, err = oneAtATime.Refresh(); err != nil {
						t.Fatalf("%s: one-at-a-time refresh: %v", label, err)
					}
				})
				assertBitIdentical(t, label+" vs one at a time", res.Logits, last.Logits)

				scratch, err := RunPregel(m, final, Options{NumWorkers: 3})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, label+" vs scratch", res.Logits, scratch.Logits)
				if g := oneDrain.Graph(); g.NumNodes != final.NumNodes || g.NumEdges != final.NumEdges {
					t.Fatalf("%s: session graph %d/%d nodes/edges, want %d/%d", label, g.NumNodes, g.NumEdges, final.NumNodes, final.NumEdges)
				}
			}
		}
	}
}

// TestSessionGATNewSourceNode: a node added with out-edges only computes an
// all-zero hidden state — bitwise the zero its grown resident row already
// holds — yet its GAT message, the emit of that zero row, is not zero. The
// delta pass must still hand its receivers the emitted row.
func TestSessionGATNewSourceNode(t *testing.T) {
	m := gas.NewGATModel("s-gat-src", gas.TaskSingleLabel, 6, 4, 2, 3, 2, tensor.NewRNG(25))
	for _, l := range m.Layers {
		// A trained projection has a bias; a fresh one's is zero, which
		// would make the zero row's emit zero too.
		tensor.NewRNG(26).Uniform(l.(*gas.GATConv).MsgLin.B.Value, -1, 1)
	}
	for _, opts := range []Options{{NumWorkers: 3, Parallel: true}, {NumWorkers: 2}} {
		opts.DeltaCutover = 1.1
		sess, err := NewSession(m, sessionTestGraph(131, false), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Refresh(); err != nil {
			t.Fatal(err)
		}
		n := int32(sess.Graph().NumNodes)
		if _, err := sess.Mutate(graph.Delta{
			AddNodes: []graph.NodeAdd{{Features: []float32{1, -2, 3, -4, 5, -6}}},
			AddEdges: []graph.EdgeAdd{{Src: n, Dst: 0}, {Src: n, Dst: 7}},
		}); err != nil {
			t.Fatal(err)
		}
		res, kind, err := sess.Refresh()
		if err != nil || kind != RefreshDelta {
			t.Fatalf("refresh kind=%v err=%v, want a delta pass", kind, err)
		}
		scratch, err := RunPregel(m, sess.Graph(), Options{NumWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("w%d/parallel=%v", opts.NumWorkers, opts.Parallel), res.Logits, scratch.Logits)
	}
}
