package inference

import (
	"math"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// The delta compute program of the incremental Session: a frontier-driven
// Pregel pass that recomputes exactly the vertices a graph delta can reach
// within L hops, against the resident per-layer state a previous full pass
// left behind.
//
// The program inverts the full pass's data flow. Where the full pass pushes
// state — scatter sends each vertex's (possibly emitted, possibly
// edge-transformed) message along its out-edges and gather folds the inbox —
// the delta pass sends payload-free activation pings and each pinged vertex
// PULLS its entire inbox from the resident message slabs through the
// GatherIndex, whose per-destination order reproduces the engine's
// ascending-source merged delivery exactly. Pulling regenerates the full
// aggregate (the fold mixes fresh and stale neighbor values transparently),
// so the recomputed row equals the full pass's row bit for bit; when the new
// row is bitwise identical to the resident one the wave halts there —
// exact-zero delta, no tolerance.
//
// Three seed classes drive the flood (see graph.DeltaEffect):
//
//   - state-dirty: h^0 changed. Recomputes layer 1 at superstep 1 and keeps
//     flooding while outputs change.
//   - inbox-dirty: the in-edge set changed. Must re-gather at EVERY layer —
//     the resident aggregate was folded over the old structure — so these
//     vertices never halt before the last superstep.
//   - pinned (out-degree changed, degree-scaled models only): every resident
//     degree-scaled message row of the vertex was rewritten before the pass,
//     so its receivers must re-gather at every such layer; the vertex itself
//     pings at each such superstep without recomputing its own unchanged
//     state.
//
// dirtyStep[v] = k records "v's h^k changed during this pass"; owner-only
// reads (== k-1) and writes (= k) make it race-free under parallel workers.
type deltaDriver struct {
	model  *gas.Model
	g      *graph.Graph
	gi     *graph.GatherIndex
	layers []*tensor.Matrix // resident h^k, k = 0..L; [0] aliases g.Features
	msgs   []*tensor.Matrix // resident wire messages for layer k, k = 0..L-1
	emits  []bool           // Layers[k] emits: msgs[k] is its own slab

	seedState  []bool
	seedInbox  []bool
	seedPinned []bool
	dirtyStep  []int32

	// Per-worker scratch, same discipline as pregelDriver: each worker
	// touches only its own slot. The pools live for one pass, so the
	// batch-sized buffers of a large pass are not kept between refreshes.
	batches []deltaBatch
	pools   []*tensor.Pool
}

// deltaBatch is one worker's frontier scratch, kept by the Session across
// passes: the rows it recomputes in a superstep and their inbox CSR over
// the resident message slab.
type deltaBatch struct {
	rows   []int32     // vertices to recompute, in owned order
	srcs   []int32     // edge-dependent layers: in-edge sources, row by row in delivery order
	eids   []int32     // and their edge ids
	off    []int32     // row r's in-edges are pays[off[r]:off[r+1]]
	pays   [][]float32 // the in-edges' message views
	counts []int32     // all ones: no message here is pre-combined
	aggr   gas.Aggregated
}

// pingTag is the columnar kind byte of an activation ping.
const pingTag = msgState

// ping activates v's out-neighbors for the next superstep. Pings carry no
// payload — receivers pull values from the resident slabs — so the send
// buffers store headers only.
func (d *deltaDriver) ping(ctx *pregel.BatchContext, v int32) {
	ctx.SendColumnarFan(d.g.OutNeighbors(v), colTag(pingTag, 0), v, 1, nil)
}

// seedStep is the superstep-0 transition: seeds announce their already-stale
// layer-0 messages. state-dirty vertices had their h^0 rewritten by the
// mutation and their emitted message row repaired before the pass (see
// Session.repairMessages); pinned vertices had their degree-scaled rows
// repaired.
// Nothing halts at superstep 0 — every seed class has later work (state-dirty
// recomputes layer 1 via dirtyStep == 0, inbox-dirty re-gathers everywhere,
// pinned pings at later degree-scaled layers).
func (d *deltaDriver) seedStep(ctx *pregel.BatchContext, v int32) {
	if d.seedState[v] || (d.seedPinned[v] && degreeScaled(d.model.Layers[0])) {
		d.ping(ctx, v)
	}
}

// ComputeBatch implements pregel.BatchProgram. The frontier restricts it to
// computed (active or pinged) rows of the partition; everything else keeps
// its resident slab rows untouched. Work per superstep is proportional to
// the surviving wave, not the partition.
//
// At superstep k >= 1 a computed vertex needs layer k recomputed when it was
// pinged, is inbox-dirty, or its own h^(k-1) changed; the worker recomputes
// all such rows as one batch (see recomputeRows). Afterwards a vertex whose
// row changed, or a pinned vertex at a degree-scaled layer, pings its
// out-neighbors; inbox-dirty and pinned vertices stay active to the end.
func (d *deltaDriver) ComputeBatch(ctx *pregel.BatchContext) {
	w, k := ctx.WorkerID(), ctx.Superstep
	owned := ctx.Owned()
	if k == 0 {
		for li, v := range owned {
			if ctx.Computed(li) {
				d.seedStep(ctx, v)
			}
		}
		return
	}
	layer := d.model.Layers[k-1]
	off, _ := ctx.InboxCSR()
	b := &d.batches[w]
	b.rows = b.rows[:0]
	var cost int64
	for li, v := range owned {
		if !ctx.Computed(li) {
			continue
		}
		if off[li+1] > off[li] || d.seedInbox[v] || d.dirtyStep[v] == int32(k-1) {
			b.rows = append(b.rows, v)
		}
		cost += layerNodeFlops(layer) + int64(d.g.InDegree(v))*layerMsgFlops(layer)
	}
	ctx.AddCost(cost)
	d.recomputeRows(w, k)
	if k == d.model.NumLayers() {
		ctx.HaltAll()
		return
	}
	pinsNext := degreeScaled(d.model.Layers[k])
	for li, v := range owned {
		if !ctx.Computed(li) {
			continue
		}
		changed := d.dirtyStep[v] == int32(k) // written by recomputeRows just now
		if changed || (d.seedPinned[v] && pinsNext) {
			d.ping(ctx, v)
		}
		if !(d.seedInbox[v] || d.seedPinned[v] || changed) {
			ctx.Halt(li)
		}
	}
}

// recomputeRows regenerates layer k's state (layer = Layers[k-1]) for worker
// w's batch rows with the full pass's gather and apply: each row pulls its
// whole inbox from the resident message slab through the GatherIndex, whose
// per-destination order is the engine's delivery order; aggregateInto folds
// the batch's CSR and one apply_node runs over its state rows. A row whose
// bits changed is written back, marked dirtyStep = k and, when Layers[k]
// emits, re-emitted with the other changed rows in one call.
//
// Every step is row-independent — the segment kernels, apply_edge,
// apply_node and Emit compute a row's bits the same whichever rows share the
// call — so each row equals the full pass's row bit for bit. Comparison is
// bitwise, the exact notion the from-scratch equivalence is stated in:
// value-equal rows with different bits (-0 vs +0) count as changed and
// propagate.
func (d *deltaDriver) recomputeRows(w, k int) {
	b := &d.batches[w]
	if len(b.rows) == 0 {
		return
	}
	layer := d.model.Layers[k-1]
	pool := d.pools[w]
	prev := d.msgs[k-1]
	edgeDep := !layer.BroadcastSafe()

	b.off = append(b.off[:0], 0)
	b.pays = b.pays[:0]
	var edgeMsgs, applied *tensor.Matrix
	if edgeDep {
		b.srcs, b.eids = b.srcs[:0], b.eids[:0]
		for _, v := range b.rows {
			srcs, eids := d.gi.InEdges(v)
			b.srcs = append(b.srcs, srcs...)
			b.eids = append(b.eids, eids...)
			b.off = append(b.off, int32(len(b.srcs)))
		}
		if len(b.srcs) > 0 {
			// Edge-dependent messages: re-run apply_edge over every in-edge
			// of the batch in one call, the op each sender's scatter ran per
			// out-edge in the full pass.
			edgeMsgs = pooledRows(pool, prev, b.srcs)
			var ef *tensor.Matrix
			if d.g.EdgeFeatures != nil {
				ef = pooledRows(pool, d.g.EdgeFeatures, b.eids)
			}
			applied = gas.ApplyEdgePooled(layer, edgeMsgs, ef, pool)
			pool.Put(ef)
			for i := range b.srcs {
				b.pays = append(b.pays, applied.Row(i))
			}
		}
	} else {
		// Broadcast-safe messages are the senders' resident rows: view them
		// straight through the index.
		for _, v := range b.rows {
			srcs, _ := d.gi.InEdges(v)
			for _, u := range srcs {
				b.pays = append(b.pays, prev.Row(int(u)))
			}
			b.off = append(b.off, int32(len(b.pays)))
		}
	}
	ne := len(b.pays)
	for len(b.counts) < ne {
		b.counts = append(b.counts, 1)
	}

	aggr := aggregateInto(&b.aggr, layer, b.off, b.pays, b.counts[:ne], len(b.rows), pool)
	if keepsEmit(layer) {
		aggr.Self = pooledRows(pool, prev, b.rows)
	}
	state := pooledRows(pool, d.layers[k-1], b.rows)
	out := gas.ApplyNodePooled(layer, state, aggr, pool)
	releaseAggregated(pool, aggr)
	pool.Put(aggr.Self)
	pool.Put(state)
	if applied != edgeMsgs {
		pool.Put(applied)
	}
	pool.Put(edgeMsgs)
	clear(b.pays) // keeps no slab a later growSlabs replaces alive

	// Write back the changed rows, compacting them and their vertex ids to
	// the front of out and b.rows for the emit.
	nc := 0
	for i, v := range b.rows {
		row := d.layers[k].Row(int(v))
		if sameBits(row, out.Row(i)) {
			continue
		}
		copy(row, out.Row(i))
		d.dirtyStep[v] = int32(k)
		if nc != i {
			copy(out.Row(nc), out.Row(i))
			b.rows[nc] = v
		}
		nc++
	}
	if nc > 0 && k < d.model.NumLayers() && d.emits[k] {
		h := &tensor.Matrix{Rows: nc, Cols: out.Cols, Data: out.Data[:nc*out.Cols]}
		emitRows(emitterOf(d.model.Layers[k]), d.g, d.msgs[k], h, b.rows[:nc], pool)
	}
	pool.Put(out)
}

// deltaSnap is the checkpointed form of the delta pass's program-owned state:
// the resident slabs a replayed superstep would re-derive from, deep-copied.
// Seed sets and layers[0] are immutable during a pass and skipped.
type deltaSnap struct {
	layers    []*tensor.Matrix // k = 1..L
	msgs      []*tensor.Matrix // emitting layers' entries only
	dirtyStep []int32
}

// SnapshotProgState implements pregel.ProgramStater: the delta program keeps
// all its superstep-to-superstep state in the session's resident slabs.
func (d *deltaDriver) SnapshotProgState() any {
	s := &deltaSnap{
		layers:    make([]*tensor.Matrix, len(d.layers)),
		msgs:      make([]*tensor.Matrix, len(d.msgs)),
		dirtyStep: append([]int32(nil), d.dirtyStep...),
	}
	for k := 1; k < len(d.layers); k++ {
		s.layers[k] = d.layers[k].Clone()
	}
	for k, m := range d.msgs {
		if d.emits[k] {
			s.msgs[k] = m.Clone()
		}
	}
	return s
}

// RestoreProgState implements pregel.ProgramStater by copying the snapshot
// back into the live slabs (dims never change mid-pass), so the snapshot
// survives the replay's writes and a second recovery stays sound.
func (d *deltaDriver) RestoreProgState(snap any) {
	s := snap.(*deltaSnap)
	for k := 1; k < len(d.layers); k++ {
		copy(d.layers[k].Data, s.layers[k].Data)
	}
	for k := range d.msgs {
		if d.emits[k] {
			copy(d.msgs[k].Data, s.msgs[k].Data)
		}
	}
	copy(d.dirtyStep, s.dirtyStep)
}

// sameBits reports bitwise equality of two equal-length rows. Bitwise — not
// float equality — so ±0 differences propagate and NaNs compare equal to
// themselves, making "unchanged" mean exactly "a from-scratch pass would
// have produced these bytes".
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
