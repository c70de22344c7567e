package graph

import (
	"reflect"
	"testing"

	"inferturbo/internal/tensor"
)

// deltaBase builds a 4-node graph with features and edge features:
// 0->1, 0->2, 1->3, 2->3, 3->0.
func deltaBase(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	edges := [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}}
	for i, e := range edges {
		b.AddEdge(e[0], e[1], []float32{float32(i)})
	}
	g := b.Build()
	g.Features = tensor.New(4, 2)
	for v := 0; v < 4; v++ {
		g.Features.SetRow(v, []float32{float32(v), float32(v) + 0.5})
	}
	g.Labels = []int32{0, 1, 0, 1}
	g.NumClasses = 2
	if err := g.Validate(); err != nil {
		t.Fatalf("base graph invalid: %v", err)
	}
	return g
}

func TestApplyDeltaFeatureUpdate(t *testing.T) {
	g := deltaBase(t)
	ng, eff, err := ApplyDelta(g, Delta{
		Features: []FeatureUpdate{{Node: 2, Features: []float32{9, 9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("mutated graph invalid: %v", err)
	}
	if got := ng.Features.Row(2); got[0] != 9 || got[1] != 9 {
		t.Fatalf("feature row not updated: %v", got)
	}
	if got := g.Features.Row(2); got[0] != 2 {
		t.Fatalf("original graph mutated: %v", got)
	}
	if !reflect.DeepEqual(eff.StateDirty, []int32{2}) {
		t.Fatalf("StateDirty = %v, want [2]", eff.StateDirty)
	}
	if len(eff.InboxDirty) != 0 || len(eff.DegreeChanged) != 0 {
		t.Fatalf("unexpected structural seeds: %+v", eff)
	}
	if ng.NumEdges != g.NumEdges {
		t.Fatalf("edge count changed: %d != %d", ng.NumEdges, g.NumEdges)
	}
}

func TestApplyDeltaStructural(t *testing.T) {
	g := deltaBase(t)
	ng, eff, err := ApplyDelta(g, Delta{
		AddNodes:    []NodeAdd{{Features: []float32{7, 7}}},
		AddEdges:    []EdgeAdd{{Src: 4, Dst: 1, Features: []float32{40}}, {Src: 0, Dst: 3, Features: []float32{41}}},
		RemoveEdges: []EdgeKey{{Src: 1, Dst: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("mutated graph invalid: %v", err)
	}
	if ng.NumNodes != 5 || eff.NumNodes != 5 {
		t.Fatalf("node count = %d/%d, want 5", ng.NumNodes, eff.NumNodes)
	}
	if ng.NumEdges != 6 { // 5 - 1 + 2
		t.Fatalf("edge count = %d, want 6", ng.NumEdges)
	}
	if eff.EdgesAdded != 2 || eff.EdgesRemoved != 1 {
		t.Fatalf("edge accounting: %+v", eff)
	}
	// New node: state+inbox dirty. Edge dsts 1 and 3 inbox dirty (3 also via
	// removal). Srcs 4 (new, excluded), 0 (+1 out-edge) and 1 (-1 out-edge)
	// changed degree; 4 is excluded as a new node.
	if !reflect.DeepEqual(eff.StateDirty, []int32{4}) {
		t.Fatalf("StateDirty = %v", eff.StateDirty)
	}
	if !reflect.DeepEqual(eff.InboxDirty, []int32{1, 3, 4}) {
		t.Fatalf("InboxDirty = %v", eff.InboxDirty)
	}
	if !reflect.DeepEqual(eff.DegreeChanged, []int32{0, 1}) {
		t.Fatalf("DegreeChanged = %v", eff.DegreeChanged)
	}
	// Edge features carried: edge 0->3 is new with feature 41; removed edge's
	// feature (id 2, value 2) is gone.
	found := false
	for i := ng.OutPtr[0]; i < ng.OutPtr[1]; i++ {
		if ng.OutDst[i] == 3 && ng.EdgeFeatures.Row(int(ng.OutEdge[i]))[0] == 41 {
			found = true
		}
	}
	if !found {
		t.Fatal("added edge 0->3 with feature 41 not found")
	}
	if got := ng.OutDegree(1); got != 0 {
		t.Fatalf("node 1 out-degree = %d after removal, want 0", got)
	}
	if len(ng.Labels) != 5 {
		t.Fatalf("labels not extended: %d", len(ng.Labels))
	}
}

func TestApplyDeltaNetZeroDegree(t *testing.T) {
	g := deltaBase(t)
	// Node 0 removes 0->1 and adds 0->3: out-degree unchanged, so it must
	// not appear in DegreeChanged; both dsts are inbox-dirty.
	_, eff, err := ApplyDelta(g, Delta{
		AddEdges:    []EdgeAdd{{Src: 0, Dst: 3, Features: []float32{9}}},
		RemoveEdges: []EdgeKey{{Src: 0, Dst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.DegreeChanged) != 0 {
		t.Fatalf("DegreeChanged = %v, want empty", eff.DegreeChanged)
	}
	if !reflect.DeepEqual(eff.InboxDirty, []int32{1, 3}) {
		t.Fatalf("InboxDirty = %v", eff.InboxDirty)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := deltaBase(t)
	cases := []Delta{
		{Features: []FeatureUpdate{{Node: 9, Features: []float32{1, 2}}}},
		{Features: []FeatureUpdate{{Node: 0, Features: []float32{1}}}},
		{AddNodes: []NodeAdd{{Features: []float32{1}}}},
		{AddEdges: []EdgeAdd{{Src: 0, Dst: 9, Features: []float32{1}}}},
		{AddEdges: []EdgeAdd{{Src: 0, Dst: 1}}}, // missing edge feature
		{RemoveEdges: []EdgeKey{{Src: 3, Dst: 1}}},
	}
	for i, d := range cases {
		if _, _, err := ApplyDelta(g, d); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestApplyDeltaRemovesMultiEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, nil)
	b.AddEdge(0, 1, nil)
	b.AddEdge(1, 0, nil)
	g := b.Build()
	g.Features = tensor.New(2, 1)
	ng, eff, err := ApplyDelta(g, Delta{RemoveEdges: []EdgeKey{{Src: 0, Dst: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges != 1 || eff.EdgesRemoved != 2 {
		t.Fatalf("multi-edge removal: edges=%d removed=%d", ng.NumEdges, eff.EdgesRemoved)
	}
}

// TestGatherIndexDeliveryOrder checks the pull index against a direct
// definition: per destination, sources ascending; a source's multi-edges in
// its CSR out-edge order.
func TestGatherIndexDeliveryOrder(t *testing.T) {
	b := NewBuilder(5)
	// Multi-edges and shuffled insertion order on purpose.
	edges := [][2]int32{{3, 1}, {0, 1}, {2, 1}, {0, 1}, {4, 0}, {2, 4}, {1, 4}, {0, 4}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], nil)
	}
	g := b.Build()
	gi := BuildGatherIndex(g)

	if len(gi.Src) != g.NumEdges || int(gi.Ptr[g.NumNodes]) != g.NumEdges {
		t.Fatalf("index sizing: %d/%d edges", len(gi.Src), gi.Ptr[g.NumNodes])
	}
	for v := int32(0); v < int32(g.NumNodes); v++ {
		srcs, eids := gi.InEdges(v)
		if len(srcs) != g.InDegree(v) {
			t.Fatalf("vertex %d: %d in-edges, want %d", v, len(srcs), g.InDegree(v))
		}
		// Reconstruct expected order from the CSR directly.
		var wantSrc, wantEid []int32
		for u := int32(0); u < int32(g.NumNodes); u++ {
			dsts, ids := g.OutNeighbors(u), g.OutEdgeIDs(u)
			for i, d := range dsts {
				if d == v {
					wantSrc = append(wantSrc, u)
					wantEid = append(wantEid, ids[i])
				}
			}
		}
		if !reflect.DeepEqual(append([]int32{}, srcs...), append([]int32{}, wantSrc...)) && len(wantSrc) > 0 {
			t.Fatalf("vertex %d: srcs %v, want %v", v, srcs, wantSrc)
		}
		if !reflect.DeepEqual(append([]int32{}, eids...), append([]int32{}, wantEid...)) && len(wantEid) > 0 {
			t.Fatalf("vertex %d: eids %v, want %v", v, eids, wantEid)
		}
	}
}

// TestEditorGatherIndexSplice walks the splice through the cases its merge
// has to get right, on the graph above: a dead base edge in a row that keeps
// others, appended multi-edges, appended edges landing between existing
// sources of their destination (with and without a death in the batch), an
// edge from a new node, and node-only growth.
// Each step's index must be BuildGatherIndex of the materialized graph, and
// the graph must be Builder's.
func TestEditorGatherIndexSplice(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range [][2]int32{{3, 1}, {0, 1}, {2, 1}, {0, 1}, {4, 0}, {2, 4}, {1, 4}, {0, 4}} {
		b.AddEdge(e[0], e[1], nil)
	}
	g := b.Build()
	g.Features = tensor.New(5, 1)
	ed := NewEditor(g)
	if !reflect.DeepEqual(ed.GatherIndex(), BuildGatherIndex(g)) {
		t.Fatal("fresh index differs from BuildGatherIndex")
	}
	for i, d := range []Delta{
		{RemoveEdges: []EdgeKey{{2, 1}}, AddEdges: []EdgeAdd{{Src: 1, Dst: 1}, {Src: 1, Dst: 1}}},
		{AddEdges: []EdgeAdd{{Src: 1, Dst: 4}, {Src: 3, Dst: 4}, {Src: 0, Dst: 4}}, RemoveEdges: []EdgeKey{{0, 1}}},
		{AddNodes: []NodeAdd{{Features: []float32{1}}}, AddEdges: []EdgeAdd{{Src: 5, Dst: 0}, {Src: 5, Dst: 1}}},
		{AddNodes: []NodeAdd{{Features: []float32{2}}, {Features: []float32{3}}}},
		{AddEdges: []EdgeAdd{{Src: 2, Dst: 4}}}, // no death: merged between sources 2 and 3
		{RemoveEdges: []EdgeKey{{5, 0}, {1, 4}}},
	} {
		want, _, ok := refApplyDelta(ed.Graph(), d)
		if !ok {
			t.Fatalf("step %d: reference rejects the batch", i)
		}
		if _, err := ed.Apply(d); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		gi := ed.GatherIndex()
		got := ed.Graph()
		requireSameGraph(t, "splice", got, want)
		if !reflect.DeepEqual(gi, BuildGatherIndex(got)) {
			t.Fatalf("step %d: spliced index\n%+v\nwant\n%+v", i, gi, BuildGatherIndex(got))
		}
	}
}
