package graph

// Graph mutation for the incremental-execution path: a Delta describes a
// batch of feature updates, new nodes and edge additions/removals. An Editor
// is a mutable overlay over an immutable base Graph: Apply folds one batch
// into the overlay in time proportional to the batch and returns the
// DeltaEffect seed sets the delta drivers flood from; Graph materializes the
// overlay as a fresh immutable Graph, once for however many batches were
// applied since the last materialization. Graphs are never written after
// they are handed out — readers holding an older snapshot stay consistent.
// GatherIndex is the pull-side mirror of the CSR: per-destination (source,
// edge-id) lists in exactly the order the Pregel barrier would deliver
// scattered messages, so a resident-state driver can regenerate any vertex's
// inbox bit-identically without messages ever being sent. An Editor that was
// asked for one splices it along with the adjacency.

import (
	"cmp"
	"fmt"
	"slices"

	"inferturbo/internal/tensor"
)

// FeatureUpdate replaces an existing node's feature row.
type FeatureUpdate struct {
	Node     int32
	Features []float32
}

// NodeAdd appends a new node; its id is the graph's node count at the time
// the delta is applied, plus the entry's index within AddNodes.
type NodeAdd struct {
	Features []float32
}

// EdgeAdd appends a directed edge. Features must match the graph's edge
// feature dimensionality (empty when the graph carries no edge attributes).
type EdgeAdd struct {
	Src, Dst int32
	Features []float32
}

// EdgeKey names a directed (src, dst) pair; removal drops every edge
// between the pair (multi-edges included).
type EdgeKey struct {
	Src, Dst int32
}

// Delta is one batch of graph mutations. Added edges may reference nodes
// introduced by AddNodes in the same batch.
type Delta struct {
	Features    []FeatureUpdate
	AddNodes    []NodeAdd
	AddEdges    []EdgeAdd
	RemoveEdges []EdgeKey
}

// Empty reports whether the delta mutates nothing.
func (d Delta) Empty() bool {
	return len(d.Features) == 0 && len(d.AddNodes) == 0 &&
		len(d.AddEdges) == 0 && len(d.RemoveEdges) == 0
}

// DeltaEffect is the seed set an incremental pass floods from, classified by
// what invalidates downstream state:
//
//   - StateDirty: the node's h^0 (feature row) changed — its own layer-1
//     state and every wire message derived from h^0 are stale.
//   - InboxDirty: the node's in-edge set changed — every layer's gather for
//     it must re-run against the new structure, even where no upstream value
//     changed.
//   - DegreeChanged: the node's out-degree changed — degree-scaled wire
//     messages (GCN's gas.Emitter) it sends are stale at every layer even
//     though its states are not.
//
// New nodes appear in both StateDirty and InboxDirty. Sets are sorted and
// duplicate-free.
type DeltaEffect struct {
	// NumNodes is the node count after the delta.
	NumNodes      int
	StateDirty    []int32
	InboxDirty    []int32
	DegreeChanged []int32
	EdgesAdded    int
	EdgesRemoved  int
}

// Editor is a mutable overlay over an immutable base Graph: tombstones on
// base edges, a list of appended edges and a copy-on-write feature matrix.
// Apply folds one Delta into the overlay in O(|d| + out-degree of the removal
// sources); Graph materializes the overlay as a new immutable Graph in
// O(V+E+N·F) and makes it the next base. Applying B batches and materializing
// once yields exactly the Graph that B single-batch ApplyDelta calls would
// have, for one rebuild instead of B.
//
// The rule that keeps snapshots safe: an Editor never writes memory a Graph
// it was given or has returned can see. Tombstones and appended edges live in
// Editor-private arrays; the feature matrix is copied before the first write
// that follows NewEditor or Graph; materialization only allocates. Unchanged
// arrays (adjacency after a feature-only batch, features after a
// structure-only batch, labels and masks while the node count holds) are
// shared between the base and the new Graph, which is sound because no Graph
// is ever written.
//
// An Editor is not safe for concurrent use. Graphs it returns are.
type Editor struct {
	base     *Graph
	numNodes int // base.NumNodes plus nodes appended since

	// Structural overlay since base. dead tombstones base edges by edge id
	// (nil until the first removal); appended edges keep arrival order, with
	// addDead tombstoning the ones a later batch removed and addBySrc indexing
	// them per source for removal lookups.
	dead     []bool
	numDead  int
	addSrc   []int32
	addDst   []int32
	addFeat  []float32 // base edge-feature dim values per appended edge
	addDead  []bool
	addBySrc map[int32][]int32

	// feat is the current feature matrix (nil when the base has none);
	// featShared says a Graph can see its storage, so the next write copies.
	feat       *tensor.Matrix
	featShared bool

	// gi is base's GatherIndex, nil until GatherIndex first asks for it;
	// from then on every materialization splices it.
	gi *GatherIndex

	rebuilds int
}

// NewEditor starts an empty overlay over g. g is never modified.
func NewEditor(g *Graph) *Editor {
	return &Editor{base: g, numNodes: g.NumNodes, feat: g.Features, featShared: true}
}

// NumNodes reports the node count after every applied batch.
func (e *Editor) NumNodes() int { return e.numNodes }

// Rebuilds counts the Graphs this Editor has materialized.
func (e *Editor) Rebuilds() int { return e.rebuilds }

// Apply validates d against the current overlay and applies it atomically:
// an error changes nothing and returns no effect. Removals resolve against
// the edges live before the batch — they never see same-batch additions — and
// drop every edge between the pair (multi-edges included); a pair matching
// nothing is an error. The returned effect is exactly what a single-batch
// ApplyDelta on the materialized graph would report.
func (e *Editor) Apply(d Delta) (*DeltaEffect, error) {
	oldN := e.numNodes
	newN := oldN + len(d.AddNodes)
	fdim := e.base.FeatureDim()
	edim := e.base.EdgeFeatureDim()

	for _, fu := range d.Features {
		if int(fu.Node) < 0 || int(fu.Node) >= oldN {
			return nil, fmt.Errorf("graph: feature update for node %d out of range [0,%d)", fu.Node, oldN)
		}
		if len(fu.Features) != fdim {
			return nil, fmt.Errorf("graph: feature update for node %d has dim %d, want %d", fu.Node, len(fu.Features), fdim)
		}
	}
	for i, na := range d.AddNodes {
		if len(na.Features) != fdim {
			return nil, fmt.Errorf("graph: new node %d has feature dim %d, want %d", i, len(na.Features), fdim)
		}
	}
	if e.feat == nil && (len(d.AddNodes) > 0 || len(d.Features) > 0) {
		return nil, fmt.Errorf("graph: feature mutations on a graph without features")
	}
	for _, ea := range d.AddEdges {
		if int(ea.Src) < 0 || int(ea.Src) >= newN || int(ea.Dst) < 0 || int(ea.Dst) >= newN {
			return nil, fmt.Errorf("graph: added edge (%d,%d) out of range [0,%d)", ea.Src, ea.Dst, newN)
		}
		if len(ea.Features) != edim {
			return nil, fmt.Errorf("graph: added edge (%d,%d) has feature dim %d, want %d", ea.Src, ea.Dst, len(ea.Features), edim)
		}
	}
	// Resolve every removal pair to the live edges it names before anything
	// changes, so a pair that matches nothing rejects the whole batch. net is
	// the batch's out-degree change per pre-existing source.
	var dropBase, dropAdd []int32 // base edge ids, appended-edge indices
	net := make(map[int32]int, len(d.AddEdges)+len(d.RemoveEdges))
	if len(d.RemoveEdges) > 0 {
		seen := make(map[EdgeKey]struct{}, len(d.RemoveEdges))
		for _, rk := range d.RemoveEdges {
			if int(rk.Src) < 0 || int(rk.Src) >= oldN || int(rk.Dst) < 0 || int(rk.Dst) >= oldN {
				return nil, fmt.Errorf("graph: removed edge (%d,%d) out of range [0,%d)", rk.Src, rk.Dst, oldN)
			}
			if _, dup := seen[rk]; dup {
				continue
			}
			seen[rk] = struct{}{}
			before := len(dropBase) + len(dropAdd)
			if b := e.base; int(rk.Src) < b.NumNodes {
				for i := b.OutPtr[rk.Src]; i < b.OutPtr[rk.Src+1]; i++ {
					if eid := b.OutEdge[i]; b.OutDst[i] == rk.Dst && (e.dead == nil || !e.dead[eid]) {
						dropBase = append(dropBase, eid)
					}
				}
			}
			for _, j := range e.addBySrc[rk.Src] {
				if e.addDst[j] == rk.Dst && !e.addDead[j] {
					dropAdd = append(dropAdd, j)
				}
			}
			matched := len(dropBase) + len(dropAdd) - before
			if matched == 0 {
				return nil, fmt.Errorf("graph: removed edge (%d,%d) does not exist", rk.Src, rk.Dst)
			}
			net[rk.Src] -= matched
		}
	}
	if d.Empty() {
		return &DeltaEffect{NumNodes: oldN}, nil
	}

	// The batch is valid; nothing below can fail.
	eff := &DeltaEffect{NumNodes: newN, EdgesAdded: len(d.AddEdges), EdgesRemoved: len(dropBase) + len(dropAdd)}
	var state, inbox []int32
	for _, fu := range d.Features {
		state = append(state, fu.Node)
	}
	for i := range d.AddNodes {
		state = append(state, int32(oldN+i))
		inbox = append(inbox, int32(oldN+i))
	}
	for _, ea := range d.AddEdges {
		inbox = append(inbox, ea.Dst)
		// New nodes have no stale resident messages to repair and are never
		// degree-change candidates.
		if int(ea.Src) < oldN {
			net[ea.Src]++
		}
	}
	for _, rk := range d.RemoveEdges {
		inbox = append(inbox, rk.Dst)
	}
	// Out-degree changes are measured, not assumed: a node that removed one
	// edge and added another sends the same scaled values — its receivers are
	// already covered through InboxDirty.
	for v, change := range net {
		if change != 0 {
			eff.DegreeChanged = append(eff.DegreeChanged, v)
		}
	}
	eff.StateDirty, eff.InboxDirty, eff.DegreeChanged = sortedSet(state), sortedSet(inbox), sortedSet(eff.DegreeChanged)

	if len(dropBase) > 0 && e.dead == nil {
		e.dead = make([]bool, e.base.NumEdges)
	}
	for _, eid := range dropBase {
		e.dead[eid] = true
	}
	e.numDead += len(dropBase)
	for _, j := range dropAdd {
		e.addDead[j] = true
	}
	e.numNodes = newN
	if len(d.AddNodes) > 0 || len(d.Features) > 0 {
		if e.featShared {
			data := make([]float32, len(e.feat.Data), newN*fdim)
			copy(data, e.feat.Data)
			e.feat = &tensor.Matrix{Rows: e.feat.Rows, Cols: fdim, Data: data}
			e.featShared = false
		}
		for _, na := range d.AddNodes {
			e.feat.Data = append(e.feat.Data, na.Features...)
		}
		e.feat.Rows = newN
		for _, fu := range d.Features {
			e.feat.SetRow(int(fu.Node), fu.Features)
		}
	}
	if len(d.AddEdges) > 0 && e.addBySrc == nil {
		e.addBySrc = make(map[int32][]int32)
	}
	for _, ea := range d.AddEdges {
		j := int32(len(e.addSrc))
		e.addSrc = append(e.addSrc, ea.Src)
		e.addDst = append(e.addDst, ea.Dst)
		e.addFeat = append(e.addFeat, ea.Features...)
		e.addDead = append(e.addDead, false)
		e.addBySrc[ea.Src] = append(e.addBySrc[ea.Src], j)
	}
	return eff, nil
}

// Graph materializes the overlay: the graph every batch applied so far
// produces, as an immutable snapshot that later Apply calls never touch. With
// nothing applied since the last call it returns the same Graph again. Edge
// ids are renumbered — surviving base edges first in their id order, then
// surviving appended edges in arrival order — with edge features carried
// along; labels and masks extend with zero values (serving graphs predict —
// labels for new nodes are unknown).
func (e *Editor) Graph() *Graph {
	b, n := e.base, e.numNodes
	edges := e.numDead > 0 || len(e.addSrc) > 0 || n != b.NumNodes
	if !edges && e.featShared {
		return b // nothing applied since b was materialized
	}
	g := &Graph{
		NumNodes: n, NumEdges: b.NumEdges,
		OutPtr: b.OutPtr, OutDst: b.OutDst, OutEdge: b.OutEdge,
		InPtr: b.InPtr, InSrc: b.InSrc, InEdge: b.InEdge,
		Features: e.feat, EdgeFeatures: b.EdgeFeatures,
		Labels: b.Labels, MultiLabels: b.MultiLabels, NumClasses: b.NumClasses,
		TrainMask: b.TrainMask, ValMask: b.ValMask, TestMask: b.TestMask,
	}
	e.featShared = true
	if edges {
		e.rebuildEdges(g)
	}
	if n != b.NumNodes {
		if b.Labels != nil {
			g.Labels = make([]int32, n)
			copy(g.Labels, b.Labels)
		}
		if b.MultiLabels != nil {
			g.MultiLabels = tensor.New(n, b.MultiLabels.Cols)
			copy(g.MultiLabels.Data, b.MultiLabels.Data)
		}
		g.TrainMask = extendMask(b.TrainMask, n)
		g.ValMask = extendMask(b.ValMask, n)
		g.TestMask = extendMask(b.TestMask, n)
	}

	e.base = g
	e.dead, e.numDead = nil, 0
	e.addSrc, e.addDst, e.addFeat, e.addDead, e.addBySrc = nil, nil, nil, nil, nil
	e.rebuilds++
	return g
}

// GatherIndex returns the delivery-order pull index of the graph Graph
// returns now, materializing pending batches first. The first call builds it
// in O(V+E); the Editor then keeps it and splices it at every later
// materialization, so an Editor nobody asks for an index never builds one.
// The index is immutable like the Graph it describes.
func (e *Editor) GatherIndex() *GatherIndex {
	g := e.Graph()
	if e.gi == nil {
		e.gi = BuildGatherIndex(g)
	}
	return e.gi
}

// rebuildEdges fills g's adjacency and edge features from the base's live
// edges followed by the live appended ones. Rows are spliced, not re-sorted:
// each new row is the base row minus its dead edges (ids remapped) followed
// by the node's live appended edges in arrival order. Base rows are in
// ascending edge-id order (Validate enforces it) and appended edges take ids
// above every surviving base edge, so the result is array for array what
// Builder.Build's counting sorts produce for the same edge list. An index
// requested through GatherIndex is spliced the same way.
func (e *Editor) rebuildEdges(g *Graph) {
	b := e.base
	// No edge below the first dead one moves; from there up, live ids close
	// the gaps.
	m := idMap{cut: int32(b.NumEdges), dead: e.dead}
	live := b.NumEdges
	if e.numDead > 0 {
		m.cut = int32(slices.Index(e.dead, true))
		m.newID = make([]int32, b.NumEdges-int(m.cut))
		live = int(m.cut)
		for i, dead := range e.dead[m.cut:] {
			m.newID[i] = int32(live)
			if !dead {
				live++
			}
		}
	}
	// The live appended edges with their new ids, keyed by source for the
	// CSR.
	var adds []addEdge
	for j, dead := range e.addDead {
		if !dead {
			adds = append(adds, addEdge{key: e.addSrc[j], nbr: e.addDst[j], id: int32(live + len(adds))})
		}
	}
	total := live + len(adds)

	if b.EdgeFeatures != nil {
		ef := tensor.New(total, b.EdgeFeatures.Cols)
		copy(ef.Data, b.EdgeFeatures.Data[:int(m.cut)*ef.Cols])
		for i, dead := range e.dead[min(int(m.cut), len(e.dead)):] {
			if !dead {
				ef.SetRow(int(m.newID[i]), b.EdgeFeatures.Row(int(m.cut)+i))
			}
		}
		id := live
		for j, dead := range e.addDead {
			if !dead {
				ef.SetRow(id, e.addFeat[j*ef.Cols:(j+1)*ef.Cols])
				id++
			}
		}
		g.EdgeFeatures = ef
	}

	g.NumEdges = total
	byKeyID := func(x, y addEdge) int { return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.id, y.id)) }
	slices.SortFunc(adds, byKeyID)
	g.OutPtr, g.OutDst, g.OutEdge = spliceAdj(g.NumNodes, b.OutPtr, b.OutDst, b.OutEdge, b.OutEdge, m, adds, false, total)
	for i := range adds {
		adds[i].key, adds[i].nbr = adds[i].nbr, adds[i].key
	}
	slices.SortFunc(adds, byKeyID)
	g.InPtr, g.InSrc, g.InEdge = spliceAdj(g.NumNodes, b.InPtr, b.InSrc, b.InEdge, b.InEdge, m, adds, false, total)
	if old := e.gi; old != nil {
		// Delivery order within a destination is (source, id); a row holds
		// the same edges as the destination's CSC row, whose last id is its
		// largest.
		slices.SortFunc(adds, func(x, y addEdge) int {
			return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.nbr, y.nbr), cmp.Compare(x.id, y.id))
		})
		gi := &GatherIndex{}
		gi.Ptr, gi.Src, gi.Edge = spliceAdj(g.NumNodes, old.Ptr, old.Src, old.Edge, b.InEdge, m, adds, true, total)
		e.gi = gi
	}
}

// idMap renumbers the base's edge ids for a splice: ids below cut keep
// their value (no edge below cut died); from cut up, dead[id] marks the dead
// ones and a live id becomes newID[id-cut].
type idMap struct {
	cut   int32
	dead  []bool
	newID []int32
}

// addEdge is a live appended edge as one adjacency side sees it: the row it
// joins, the neighbor it names there and its id in the new graph.
type addEdge struct{ key, nbr, id int32 }

// spliceAdj builds one n-row adjacency side (ptr, neighbor and edge-id
// arrays) from the old side's rows and the appended edges, which are sorted
// by key and in their row's order within a key. Each old row keeps its
// order minus its dead entries, with ids renumbered through m; the row's
// appended edges follow it, or with byNbr are merged in before the first old
// entry of a larger neighbor — the GatherIndex's (source, id) order, since
// an appended id exceeds every old one. Rows at or past the old side's node
// count hold appended edges only. maxID[ptr[v+1]-1] is the largest id in
// old row v; a run of rows with no appended edge and no id at or above
// m.cut is copied as one block.
func spliceAdj(n int, ptr, nbr, eid, maxID []int32, m idMap, adds []addEdge, byNbr bool, total int) (optr, onbr, oeid []int32) {
	optr = make([]int32, n+1)
	onbr, oeid = make([]int32, total), make([]int32, total)
	oldN := len(ptr) - 1
	var p int32
	run := 0 // old rows [run, v) are unchanged and not yet copied
	flush := func(hi int) {
		shift := p - ptr[run]
		for u := run; u < hi; u++ {
			optr[u] = ptr[u] + shift
		}
		copy(onbr[p:], nbr[ptr[run]:ptr[hi]])
		p += int32(copy(oeid[p:], eid[ptr[run]:ptr[hi]]))
		run = hi
	}
	a := 0
	for v := 0; v < n; v++ {
		end := a
		for end < len(adds) && adds[end].key == int32(v) {
			end++
		}
		if v < oldN {
			lo, hi := ptr[v], ptr[v+1]
			if a == end && (lo == hi || maxID[hi-1] < m.cut) {
				continue
			}
			flush(v)
			optr[v] = p
			for i := lo; i < hi; i++ {
				id := eid[i]
				if id >= m.cut {
					if m.dead[id] {
						continue
					}
					id = m.newID[id-m.cut]
				}
				for ; byNbr && a < end && adds[a].nbr < nbr[i]; a++ {
					onbr[p], oeid[p] = adds[a].nbr, adds[a].id
					p++
				}
				onbr[p], oeid[p] = nbr[i], id
				p++
			}
			run = v + 1
		} else {
			flush(oldN)
			optr[v] = p
		}
		for ; a < end; a++ {
			onbr[p], oeid[p] = adds[a].nbr, adds[a].id
			p++
		}
	}
	flush(oldN)
	optr[n] = p
	return optr, onbr, oeid
}

// ApplyDelta builds the mutated graph and its seed sets: one batch through a
// throwaway Editor. g is not modified. An error returns no graph and no
// effect.
func ApplyDelta(g *Graph, d Delta) (*Graph, *DeltaEffect, error) {
	e := NewEditor(g)
	eff, err := e.Apply(d)
	if err != nil {
		return nil, nil, err
	}
	return e.Graph(), eff, nil
}

func extendMask(m []bool, n int) []bool {
	if m == nil {
		return nil
	}
	out := make([]bool, n)
	copy(out, m)
	return out
}

// sortedSet sorts s in place and drops duplicates; empty stays nil.
func sortedSet(s []int32) []int32 {
	if len(s) == 0 {
		return nil
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// GatherIndex is the pull-side view of a graph's in-edges in message
// delivery order: vertex v's in-edges are (Src[i], Edge[i]) for i in
// Ptr[v]..Ptr[v+1], ordered by ascending source id with a source's
// multi-edges in its CSR out-edge order. That is exactly the per-destination
// order the Pregel barrier's ascending-source merge delivers scattered
// messages in — independent of worker count and placement — so folding a
// regenerated inbox in GatherIndex order reproduces an engine gather bit for
// bit. (The CSC's per-destination lists are in edge-insertion order and
// cannot serve this purpose.)
type GatherIndex struct {
	Ptr  []int32 // len NumNodes+1
	Src  []int32 // len NumEdges
	Edge []int32 // len NumEdges
}

// BuildGatherIndex constructs the delivery-order pull index in O(V+E).
func BuildGatherIndex(g *Graph) *GatherIndex {
	gi := &GatherIndex{
		Ptr:  make([]int32, g.NumNodes+1),
		Src:  make([]int32, g.NumEdges),
		Edge: make([]int32, g.NumEdges),
	}
	copy(gi.Ptr, g.InPtr) // in-degree counts are order-independent
	cur := make([]int32, g.NumNodes)
	copy(cur, gi.Ptr[:g.NumNodes])
	for v := int32(0); v < int32(g.NumNodes); v++ {
		dsts, eids := g.OutNeighbors(v), g.OutEdgeIDs(v)
		for i, d := range dsts {
			p := cur[d]
			gi.Src[p] = v
			gi.Edge[p] = eids[i]
			cur[d]++
		}
	}
	return gi
}

// InEdges returns v's (sources, edge ids) in delivery order (aliases
// storage; callers must not mutate).
func (gi *GatherIndex) InEdges(v int32) (srcs, eids []int32) {
	return gi.Src[gi.Ptr[v]:gi.Ptr[v+1]], gi.Edge[gi.Ptr[v]:gi.Ptr[v+1]]
}
