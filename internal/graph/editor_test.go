package graph

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"

	"inferturbo/internal/tensor"
)

// refApplyDelta is the reference the Editor is tested against: the mutated
// graph rebuilt from scratch through Builder, the effect sets through maps.
// It shares no code with Editor.Apply or Editor.Graph.
func refApplyDelta(g *Graph, d Delta) (*Graph, *DeltaEffect, bool) {
	oldN := g.NumNodes
	newN := oldN + len(d.AddNodes)
	fdim, edim := g.FeatureDim(), g.EdgeFeatureDim()
	inRange := func(v int32, n int) bool { return int(v) >= 0 && int(v) < n }
	for _, fu := range d.Features {
		if !inRange(fu.Node, oldN) || len(fu.Features) != fdim {
			return nil, nil, false
		}
	}
	for _, na := range d.AddNodes {
		if len(na.Features) != fdim {
			return nil, nil, false
		}
	}
	if g.Features == nil && (len(d.AddNodes) > 0 || len(d.Features) > 0) {
		return nil, nil, false
	}
	for _, ea := range d.AddEdges {
		if !inRange(ea.Src, newN) || !inRange(ea.Dst, newN) || len(ea.Features) != edim {
			return nil, nil, false
		}
	}
	hits := make(map[EdgeKey]int)
	for _, rk := range d.RemoveEdges {
		if !inRange(rk.Src, oldN) || !inRange(rk.Dst, oldN) {
			return nil, nil, false
		}
		hits[rk] = 0
	}

	b := NewBuilder(newN)
	var efeat [][]float32
	src, dst := g.EdgeList()
	removed := 0
	for e := range src {
		key := EdgeKey{src[e], dst[e]}
		if _, ok := hits[key]; ok {
			hits[key]++
			removed++
			continue
		}
		b.AddEdge(src[e], dst[e], nil)
		if g.EdgeFeatures != nil {
			efeat = append(efeat, g.EdgeFeatures.Row(e))
		}
	}
	for _, n := range hits {
		if n == 0 {
			return nil, nil, false
		}
	}
	for _, ea := range d.AddEdges {
		b.AddEdge(ea.Src, ea.Dst, nil)
		if g.EdgeFeatures != nil {
			efeat = append(efeat, ea.Features)
		}
	}
	ng := b.Build()
	if g.EdgeFeatures != nil {
		ng.EdgeFeatures = tensor.New(len(efeat), edim)
		for e, row := range efeat {
			ng.EdgeFeatures.SetRow(e, row)
		}
	}
	if g.Features != nil {
		ng.Features = tensor.New(newN, fdim)
		copy(ng.Features.Data, g.Features.Data)
		for i, na := range d.AddNodes {
			ng.Features.SetRow(oldN+i, na.Features)
		}
		for _, fu := range d.Features {
			ng.Features.SetRow(int(fu.Node), fu.Features)
		}
	}
	if g.Labels != nil {
		ng.Labels = append(slices.Clone(g.Labels), make([]int32, len(d.AddNodes))...)
	}
	if g.MultiLabels != nil {
		ng.MultiLabels = tensor.New(newN, g.MultiLabels.Cols)
		copy(ng.MultiLabels.Data, g.MultiLabels.Data)
	}
	ng.NumClasses = g.NumClasses
	ng.TrainMask, ng.ValMask, ng.TestMask = extendMask(g.TrainMask, newN), extendMask(g.ValMask, newN), extendMask(g.TestMask, newN)

	eff := &DeltaEffect{NumNodes: newN, EdgesAdded: len(d.AddEdges), EdgesRemoved: removed}
	state, inbox, deg := map[int32]bool{}, map[int32]bool{}, map[int32]bool{}
	for _, fu := range d.Features {
		state[fu.Node] = true
	}
	for i := range d.AddNodes {
		state[int32(oldN+i)], inbox[int32(oldN+i)] = true, true
	}
	for _, ea := range d.AddEdges {
		inbox[ea.Dst], deg[ea.Src] = true, true
	}
	for _, rk := range d.RemoveEdges {
		inbox[rk.Dst], deg[rk.Src] = true, true
	}
	for v := range deg {
		if int(v) >= oldN || g.OutDegree(v) == ng.OutDegree(v) {
			delete(deg, v)
		}
	}
	keys := func(m map[int32]bool) []int32 {
		var out []int32
		for v := range m {
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	eff.StateDirty, eff.InboxDirty, eff.DegreeChanged = keys(state), keys(inbox), keys(deg)
	return ng, eff, true
}

func sameMatrixBits(a, b *tensor.Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// requireSameGraph fails unless a and b are the same graph array for array:
// adjacency, bit-identical features, labels and masks.
func requireSameGraph(t *testing.T, label string, a, b *Graph) {
	t.Helper()
	ints := map[string][2][]int32{
		"OutPtr": {a.OutPtr, b.OutPtr}, "OutDst": {a.OutDst, b.OutDst}, "OutEdge": {a.OutEdge, b.OutEdge},
		"InPtr": {a.InPtr, b.InPtr}, "InSrc": {a.InSrc, b.InSrc}, "InEdge": {a.InEdge, b.InEdge},
		"Labels": {a.Labels, b.Labels},
	}
	for name, p := range ints {
		if !slices.Equal(p[0], p[1]) || (p[0] == nil) != (p[1] == nil) {
			t.Fatalf("%s: %s differs:\n%v\n%v", label, name, p[0], p[1])
		}
	}
	for name, p := range map[string][2]*tensor.Matrix{
		"Features": {a.Features, b.Features}, "EdgeFeatures": {a.EdgeFeatures, b.EdgeFeatures},
		"MultiLabels": {a.MultiLabels, b.MultiLabels},
	} {
		if !sameMatrixBits(p[0], p[1]) {
			t.Fatalf("%s: %s differs:\n%v\n%v", label, name, p[0], p[1])
		}
	}
	for name, p := range map[string][2][]bool{
		"TrainMask": {a.TrainMask, b.TrainMask}, "ValMask": {a.ValMask, b.ValMask}, "TestMask": {a.TestMask, b.TestMask},
	} {
		if !slices.Equal(p[0], p[1]) || (p[0] == nil) != (p[1] == nil) {
			t.Fatalf("%s: %s differs: %v vs %v", label, name, p[0], p[1])
		}
	}
	if a.NumNodes != b.NumNodes || a.NumEdges != b.NumEdges || a.NumClasses != b.NumClasses {
		t.Fatalf("%s: counts differ: %d/%d/%d vs %d/%d/%d", label,
			a.NumNodes, a.NumEdges, a.NumClasses, b.NumNodes, b.NumEdges, b.NumClasses)
	}
}

// picker turns a byte string (fuzz input) or a seeded RNG into choices.
type picker func(n int) int

func bytePicker(data []byte) picker {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

func pickRow(pick picker, dim int) []float32 {
	row := make([]float32, dim)
	for i := range row {
		switch v := pick(64); v {
		case 0:
			row[i] = float32(math.Copysign(0, -1))
		default:
			row[i] = float32(v)/8 - 4
		}
	}
	return row
}

// genDelta draws one batch against cur, the graph the batch will apply to.
// prev is the previous batch (its added edge is a removal candidate) and
// lastNew the most recently added node, -1 before any. The kinds cover what
// the Editor's overlay has to get right across batches.
func genDelta(pick picker, cur *Graph, prev Delta, lastNew int32) Delta {
	n := int32(cur.NumNodes)
	fdim, edim := cur.FeatureDim(), cur.EdgeFeatureDim()
	node := func() int32 { return int32(pick(int(n))) }
	edge := func(u, v int32) EdgeAdd { return EdgeAdd{Src: u, Dst: v, Features: pickRow(pick, edim)} }
	existing := func() (EdgeKey, bool) {
		if cur.NumEdges == 0 {
			return EdgeKey{}, false
		}
		src, dst := cur.EdgeList()
		e := pick(cur.NumEdges)
		return EdgeKey{src[e], dst[e]}, true
	}
	var d Delta
	if pick(3) == 0 && cur.Features != nil {
		d.Features = append(d.Features, FeatureUpdate{Node: node(), Features: pickRow(pick, fdim)})
	}
	switch pick(9) {
	case 0: // an invalid piece riding on otherwise valid ones
		switch pick(6) {
		case 0:
			d.Features = append(d.Features, FeatureUpdate{Node: n, Features: pickRow(pick, fdim)})
		case 1:
			d.Features = append(d.Features, FeatureUpdate{Node: node(), Features: pickRow(pick, fdim+1)})
		case 2:
			d.AddEdges = append(d.AddEdges, edge(node(), n+int32(len(d.AddNodes))))
		case 3:
			d.AddEdges = append(d.AddEdges, EdgeAdd{Src: node(), Dst: node(), Features: pickRow(pick, edim+1)})
		case 4: // a removal never sees its own batch's additions
			u, v := node(), node()
			if !slices.Contains(cur.OutNeighbors(u), v) {
				d.AddEdges = append(d.AddEdges, edge(u, v))
				d.RemoveEdges = append(d.RemoveEdges, EdgeKey{u, v})
			}
		case 5: // nor its own batch's nodes
			d.AddNodes = append(d.AddNodes, NodeAdd{Features: pickRow(pick, fdim)})
			d.AddEdges = append(d.AddEdges, edge(n, node()))
			d.RemoveEdges = append(d.RemoveEdges, EdgeKey{n, node()})
		}
		d.AddEdges = append(d.AddEdges, edge(node(), node()))
	case 1: // remove the edge the previous batch added
		if len(prev.AddEdges) > 0 {
			e := prev.AddEdges[len(prev.AddEdges)-1]
			if int(e.Src) < cur.NumNodes && slices.Contains(cur.OutNeighbors(e.Src), e.Dst) {
				d.RemoveEdges = append(d.RemoveEdges, EdgeKey{e.Src, e.Dst})
			}
		}
	case 2: // build a multi-edge
		u, v := node(), node()
		d.AddEdges = append(d.AddEdges, edge(u, v), edge(u, v))
	case 3: // remove a pair, every multi-edge of it, named twice
		if k, ok := existing(); ok {
			d.RemoveEdges = append(d.RemoveEdges, k, k)
		}
	case 4: // net-zero out-degree: as many edges out of u as the removal drops
		if k, ok := existing(); ok {
			d.RemoveEdges = append(d.RemoveEdges, k)
			for _, v := range cur.OutNeighbors(k.Src) {
				if v == k.Dst {
					d.AddEdges = append(d.AddEdges, edge(k.Src, node()))
				}
			}
		}
	case 5: // new nodes wired to old ones and to each other
		if cur.Features != nil || pick(4) == 0 {
			d.AddNodes = append(d.AddNodes, NodeAdd{Features: pickRow(pick, fdim)}, NodeAdd{Features: pickRow(pick, fdim)})
			d.AddEdges = append(d.AddEdges, edge(n, node()), edge(node(), n+1), edge(n+1, n))
		}
	case 6: // a later batch referencing an earlier batch's node
		if lastNew >= 0 {
			d.AddEdges = append(d.AddEdges, edge(lastNew, node()), edge(node(), lastNew))
			if cur.Features != nil {
				d.Features = append(d.Features, FeatureUpdate{Node: lastNew, Features: pickRow(pick, fdim)})
			}
		}
	case 7: // the same row rewritten twice: the later value wins
		if cur.Features != nil {
			v := node()
			d.Features = append(d.Features, FeatureUpdate{Node: v, Features: pickRow(pick, fdim)}, FeatureUpdate{Node: v, Features: pickRow(pick, fdim)})
		}
	case 8: // node-only growth: new rows with no edges yet
		if cur.Features != nil || pick(4) == 0 {
			d.AddNodes = append(d.AddNodes, NodeAdd{Features: pickRow(pick, fdim)})
		}
	}
	return d
}

// runEditorSequence is the differential: one Editor across the whole
// sequence against single-batch ApplyDelta folded over it and against the
// Builder reference. Every batch must be accepted or rejected by all three,
// with the same effect; graphs are compared whenever pick asks for a
// mid-sequence materialization and at the end, so a rejected batch that
// leaked anything into the overlay shows as a difference.
//
// The Editor's GatherIndex rides along: pick asks for it before some
// materializations (the first ask builds it, later materializations splice
// it), and whenever the Editor holds one it must equal BuildGatherIndex of
// the graph just materialized.
func runEditorSequence(t *testing.T, base *Graph, pick picker, batches int) {
	t.Helper()
	ed := NewEditor(base)
	materialize := func(label string) *Graph {
		t.Helper()
		if pick(3) == 0 {
			ed.GatherIndex()
		}
		g := ed.Graph()
		if ed.gi != nil && !reflect.DeepEqual(ed.gi, BuildGatherIndex(g)) {
			t.Fatalf("%s: Editor's gather index differs from BuildGatherIndex:\n%+v\n%+v", label, ed.gi, BuildGatherIndex(g))
		}
		return g
	}
	fold, ref := base, base
	var prev Delta
	lastNew := int32(-1)
	rejected := 0
	for i := 0; i < batches; i++ {
		d := genDelta(pick, fold, prev, lastNew)
		prev = d
		effE, errE := ed.Apply(d)
		gF, effF, errF := ApplyDelta(fold, d)
		gR, effR, okR := refApplyDelta(ref, d)
		if (errE == nil) != okR || (errF == nil) != okR {
			t.Fatalf("batch %d %+v: editor err=%v, ApplyDelta err=%v, reference accepted=%v", i, d, errE, errF, okR)
		}
		if !okR {
			rejected++
			if effE != nil || gF != nil || effF != nil || ed.NumNodes() != fold.NumNodes {
				t.Fatalf("batch %d: rejected batch returned a result or moved the node count", i)
			}
		} else if d.Empty() {
			if effE.NumNodes != fold.NumNodes || gF != fold {
				t.Fatalf("batch %d: empty batch changed something", i)
			}
		} else {
			if !reflect.DeepEqual(effE, effR) || !reflect.DeepEqual(effF, effR) {
				t.Fatalf("batch %d %+v: effects differ:\neditor     %+v\nApplyDelta %+v\nreference  %+v", i, d, effE, effF, effR)
			}
			if len(d.AddNodes) > 0 {
				lastNew = int32(effR.NumNodes - 1)
			}
			fold, ref = gF, gR
		}
		if pick(5) == 0 {
			requireSameGraph(t, "mid-sequence editor vs fold", materialize("mid-sequence"), fold)
		}
	}
	got := materialize("end")
	requireSameGraph(t, "editor vs fold", got, fold)
	requireSameGraph(t, "editor vs reference", got, ref)
	if err := got.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
	if again := ed.Graph(); again != got {
		t.Fatal("Graph() with nothing applied returned a new graph")
	}
	t.Logf("%d batches, %d rejected, %d rebuilds, %d nodes, %d edges", batches, rejected, ed.Rebuilds(), got.NumNodes, got.NumEdges)
}

// editorBases are the graphs the sequences start from: with and without
// edge features, multi-label, featureless (every feature mutation rejects),
// and a denser random one whose rows are long enough for multi-edges.
func editorBases() map[string]*Graph {
	bare := fuzzSeedGraph(false, false)
	bare.Features = nil
	rng := tensor.NewRNG(5)
	b := NewBuilder(40)
	for e := 0; e < 160; e++ {
		b.AddEdge(int32(rng.Intn(40)), int32(rng.Intn(8)), []float32{float32(e)})
	}
	dense := b.Build()
	dense.Features = tensor.New(40, 3)
	for i := range dense.Features.Data {
		dense.Features.Data[i] = rng.Float32()
	}
	return map[string]*Graph{
		"edge-features": fuzzSeedGraph(true, false),
		"multi-label":   fuzzSeedGraph(false, true),
		"featureless":   bare,
		"dense":         dense,
		"empty":         NewBuilder(0).Build(),
	}
}

func TestEditorMatchesFoldedApplyDelta(t *testing.T) {
	for name, base := range editorBases() {
		if base.NumNodes == 0 {
			continue // nothing to draw nodes from; the fuzz seeds cover it
		}
		for seed := int64(1); seed <= 12; seed++ {
			rng := tensor.NewRNG(seed * 31)
			t.Run(name, func(t *testing.T) {
				runEditorSequence(t, base, func(n int) int { return rng.Intn(n) }, 48)
			})
		}
	}
}

// FuzzEditorSequence drives the same differential from fuzzer-chosen bytes:
// the first byte picks the base graph, the rest every choice genDelta makes.
func FuzzEditorSequence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 5, 1, 2, 3, 0, 1, 9, 9, 0, 3, 0, 0, 4, 1, 2, 0, 6, 7, 7, 1, 0, 0, 1})
	f.Add([]byte{3, 1, 2, 17, 40, 3, 0, 2, 17, 40, 0, 3, 5, 1, 4, 5, 0, 0, 4, 0, 6, 2, 2})
	f.Add([]byte{2, 0, 0, 4, 1, 1, 0, 0, 5, 2, 2, 0, 7, 3, 3, 3, 0, 1})
	bases := editorBases()
	names := []string{"edge-features", "multi-label", "featureless", "dense"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			return
		}
		base := bases[names[int(data[0])%len(names)]]
		runEditorSequence(t, base, bytePicker(data[1:]), 1+len(data)/8)
	})
}

// graphChecksum folds every array a reader of g can reach.
func graphChecksum(g *Graph) uint32 {
	h := crc32.NewIEEE()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range [][]int32{g.OutPtr, g.OutDst, g.OutEdge, g.InPtr, g.InSrc, g.InEdge, g.Labels} {
		for _, v := range s {
			put(uint32(v))
		}
	}
	for _, m := range []*tensor.Matrix{g.Features, g.EdgeFeatures, g.MultiLabels} {
		if m != nil {
			for _, v := range m.Data {
				put(math.Float32bits(v))
			}
		}
	}
	for _, m := range [][]bool{g.TrainMask, g.ValMask, g.TestMask} {
		for _, v := range m {
			if v {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return h.Sum32()
}

// TestEditorNeverWritesReturnedGraphs: a Graph the Editor returned keeps its
// checksum while a reader walks it and the Editor keeps applying batches and
// materializing. Run under -race, a write into anything the snapshot can see
// is also a reported race.
func TestEditorNeverWritesReturnedGraphs(t *testing.T) {
	base := editorBases()["dense"]
	ed := NewEditor(base)
	rng := tensor.NewRNG(77)
	pick := func(n int) int { return rng.Intn(n) }
	apply := func(rounds int) {
		var prev Delta
		for i := 0; i < rounds; i++ {
			d := genDelta(pick, ed.Graph(), prev, int32(ed.NumNodes()-1))
			prev = d
			_, _ = ed.Apply(d) // rejected batches are part of the mix
			// A second batch on the same overlay before the next Graph().
			_, _ = ed.Apply(Delta{Features: []FeatureUpdate{{Node: int32(pick(ed.NumNodes())), Features: pickRow(pick, 3)}}})
		}
	}
	apply(8)
	snap := ed.Graph()
	baseSum, snapSum := graphChecksum(base), graphChecksum(snap)

	walked := make(chan struct{})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for first := true; ; first = false {
			if graphChecksum(snap) != snapSum || graphChecksum(base) != baseSum {
				t.Error("a returned graph changed under its reader")
				return
			}
			if first {
				close(walked)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-walked
	apply(64)
	close(stop)
	<-done
	if graphChecksum(snap) != snapSum || graphChecksum(base) != baseSum {
		t.Fatal("a returned graph changed after further Apply calls")
	}
}
