package inference

import (
	"fmt"
	"math"
	"testing"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// hostileRows are feature rows carrying the floats every path must
// propagate identically: NaN, ±Inf, an all −0 row and denormals of both
// signs.
func hostileRows(dim int) [][]float32 {
	negZero := float32(math.Copysign(0, -1))
	tiny := float32(math.SmallestNonzeroFloat32)
	rows := make([][]float32, 5)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(j+1) / float32(dim)
		}
	}
	rows[0][1] = float32(math.NaN())
	rows[1][0] = float32(math.Inf(1))
	rows[2][2] = float32(math.Inf(-1))
	for j := range rows[3] {
		rows[3][j] = negZero
	}
	rows[4][0], rows[4][1], rows[4][2] = tiny, -tiny, 3e-39
	return rows
}

// hostileTargets picks the nodes hostileRows overwrite: the highest
// out-degree hub takes the denormals, so they reach a broadcast payload,
// and four low-degree senders take the rest.
func hostileTargets(g *graph.Graph) []int32 {
	hub := int32(0)
	for v := int32(1); v < int32(g.NumNodes); v++ {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	}
	var out []int32
	for v := int32(0); v < int32(g.NumNodes) && len(out) < 4; v++ {
		if v != hub && g.OutDegree(v) > 0 && g.OutDegree(v) < 4 {
			out = append(out, v)
		}
	}
	return append(out, hub)
}

// TestGATHostileFloatsBitIdentical sends NaN, ±Inf, −0 and denormal
// features through the GAT emit — the sender's projection and scores — and
// requires the logits bit-equal to ReferenceForward on every golden plane,
// on RunInduced's roots, and after a Session delta refresh that plants the
// same rows by mutation. goldenGAT's ReLU squashes NaN in the hidden layer;
// a leaky-ReLU twin carries it through to the logits.
func TestGATHostileFloatsBitIdentical(t *testing.T) {
	golden, clean := goldenGAT()
	rng := tensor.NewRNG(2508)
	leaky := &gas.Model{Name: "hostile-leaky", Task: gas.TaskSingleLabel, NumClasses: 4, Layers: []gas.Conv{
		gas.NewGATConv(gas.GATConfig{InDim: 8, Heads: 3, HeadDim: 6, ConcatHeads: true, Activation: gas.ActLeaky}, rng),
		gas.NewGATConv(gas.GATConfig{InDim: 18, Heads: 3, HeadDim: 4, Activation: gas.ActNone}, rng),
	}}
	targets := hostileTargets(clean)
	rows := hostileRows(clean.FeatureDim())
	var d graph.Delta
	for i, v := range targets {
		d.Features = append(d.Features, graph.FeatureUpdate{Node: v, Features: rows[i]})
	}
	ed := graph.NewEditor(clean)
	if _, err := ed.Apply(d); err != nil {
		t.Fatal(err)
	}
	g := ed.Graph()
	for name, m := range map[string]*gas.Model{"golden": golden, "leaky": leaky} {
		want := ReferenceForward(m, g)
		if name == "leaky" && !hasNaN(want) {
			t.Fatal("leaky: no NaN reached the logits")
		}
		checkHostile(t, name, m, clean, g, d, targets, want)
	}
}

func hasNaN(m *tensor.Matrix) bool {
	for _, x := range m.Data {
		if x != x {
			return true
		}
	}
	return false
}

// checkHostile asserts want on every path the test names: g is clean with
// d applied, and d overwrites the targets' features.
func checkHostile(t *testing.T, name string, m *gas.Model, clean, g *graph.Graph, d graph.Delta, targets []int32, want *tensor.Matrix) {
	for _, tc := range goldenPlanes {
		res, err := RunPregel(m, g, tc.opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, tc.name, err)
		}
		assertBitIdentical(t, name+"/"+tc.name, res.Logits, want)
	}

	// Roots are the hostile senders' out-neighbors, topped up at random.
	rng := tensor.NewRNG(2507)
	for _, n := range []int{1, 16} {
		seen := map[int32]bool{}
		var roots []int32
		for _, v := range targets {
			for _, u := range g.OutNeighbors(v) {
				if len(roots) < n && !seen[u] {
					seen[u] = true
					roots = append(roots, u)
				}
			}
		}
		for len(roots) < n {
			if u := int32(rng.Intn(g.NumNodes)); !seen[u] {
				seen[u] = true
				roots = append(roots, u)
			}
		}
		ind, err := graph.KHop(g, roots, graph.KHopOptions{Hops: m.NumLayers()}).Induce(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunInduced(m, ind, Options{NumWorkers: 3, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		for v, dep := range ind.Depth {
			if dep == 0 {
				bitEqualRows(t, fmt.Sprintf("%s/RunInduced/roots=%d", name, n), res.Logits, int32(v), want, ind.Nodes[v])
			}
		}
	}

	for _, opts := range []Options{{NumWorkers: 3, Parallel: true}, {NumWorkers: 2}} {
		opts.DeltaCutover = 1.1 // pin the delta path
		label := fmt.Sprintf("%s/session/w%d", name, opts.NumWorkers)
		sess, err := NewSession(m, clean, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Mutate(d); err != nil {
			t.Fatal(err)
		}
		res, kind, err := sess.Refresh()
		if err != nil || kind != RefreshDelta {
			t.Fatalf("%s: refresh kind=%v err=%v, want a delta pass", label, kind, err)
		}
		assertBitIdentical(t, label, res.Logits, want)
	}
}
