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
	// touches only its own slot.
	aggrs     []gas.Aggregated
	stateMats []tensor.Matrix
	payMats   []tensor.Matrix
	efMats    []tensor.Matrix
	degs      [][1]int32
	pools     []*tensor.Pool
}

// deltaVtx carries no per-vertex engine state: everything lives in the
// session's resident slabs. deltaPing is the (payload-free) message type.
type (
	deltaVtx  struct{}
	deltaPing struct{}
)

// pingTag is the columnar kind byte of an activation ping.
const pingTag = msgState

func newDeltaDriver(model *gas.Model, g *graph.Graph, gi *graph.GatherIndex, layers, msgs []*tensor.Matrix, emits []bool, seedState, seedInbox, seedPinned []bool, dirtyStep []int32, numWorkers int) *deltaDriver {
	d := &deltaDriver{
		model: model, g: g, gi: gi,
		layers: layers, msgs: msgs, emits: emits,
		seedState: seedState, seedInbox: seedInbox, seedPinned: seedPinned,
		dirtyStep: dirtyStep,
		aggrs:     make([]gas.Aggregated, numWorkers),
		stateMats: make([]tensor.Matrix, numWorkers),
		payMats:   make([]tensor.Matrix, numWorkers),
		efMats:    make([]tensor.Matrix, numWorkers),
		degs:      make([][1]int32, numWorkers),
		pools:     make([]*tensor.Pool, numWorkers),
	}
	for i := range d.pools {
		d.pools[i] = tensor.NewPool()
	}
	return d
}

// ping activates v's out-neighbors for the next superstep. Pings carry no
// payload — receivers pull values from the resident slabs — so the arena
// stores headers only.
func (d *deltaDriver) ping(send colSender, v int32) {
	send.SendColumnarFan(d.g.OutNeighbors(v), colTag(pingTag, 0), v, 1, nil)
}

// step runs one vertex's superstep-k (k >= 1) transition and returns whether
// the vertex votes to halt. pinged reports a non-empty inbox.
func (d *deltaDriver) step(send colSender, w int, v int32, k int, pinged bool) (halt bool) {
	numLayers := d.model.NumLayers()
	needs := pinged || d.seedInbox[v] || d.dirtyStep[v] == int32(k-1)
	changed := false
	if needs {
		changed = d.recompute(w, v, k)
	}
	if k == numLayers {
		return true
	}
	if changed || (d.seedPinned[v] && degreeScaled(d.model.Layers[k])) {
		d.ping(send, v)
	}
	return !(d.seedInbox[v] || d.seedPinned[v] || changed)
}

// seedStep is the superstep-0 transition: seeds announce their already-stale
// layer-0 messages. state-dirty vertices had their h^0 rewritten by the
// mutation and their emitted message row repaired before the pass (see
// Session.repairMessages); pinned vertices had their degree-scaled rows
// repaired.
// Nothing halts at superstep 0 — every seed class has later work (state-dirty
// recomputes layer 1 via dirtyStep == 0, inbox-dirty re-gathers everywhere,
// pinned pings at later degree-scaled layers).
func (d *deltaDriver) seedStep(send colSender, v int32) {
	if d.seedState[v] || (d.seedPinned[v] && degreeScaled(d.model.Layers[0])) {
		d.ping(send, v)
	}
}

// recompute regenerates v's layer-k state (layer = Layers[k-1]) by pulling
// its whole inbox from the resident message slab in delivery order, then
// re-applying the node update. Returns whether the resident row changed.
// Comparison is bitwise, the exact notion the from-scratch equivalence is
// stated in: value-equal rows with different bits (-0 vs +0) count as
// changed and propagate.
func (d *deltaDriver) recompute(w int, v int32, k int) bool {
	layer := d.model.Layers[k-1]
	srcs, eids := d.gi.InEdges(v)
	pool := d.pools[w]
	prev := d.msgs[k-1]

	var aggr *gas.Aggregated
	if layer.BroadcastSafe() {
		aggr = vectorizeAggregateInto(&d.aggrs[w], layer.Reduce(), layer.InDim(), len(srcs), func(i int) ([]float32, int32) {
			return prev.Row(int(srcs[i])), 1
		}, pool)
	} else {
		// Edge-dependent messages: re-run apply_edge per in-edge, exactly the
		// op the sender's scatter ran in the full pass. The previous pooled
		// payload recycles one call later — the fold has consumed it by then.
		var pend *tensor.Matrix
		aggr = vectorizeAggregateInto(&d.aggrs[w], layer.Reduce(), layer.InDim(), len(srcs), func(i int) ([]float32, int32) {
			if pend != nil {
				pool.Put(pend)
				pend = nil
			}
			base := rowMat(&d.payMats[w], prev.Row(int(srcs[i])))
			var ef *tensor.Matrix
			if d.g.EdgeFeatures != nil {
				ef = rowMat(&d.efMats[w], d.g.EdgeFeatures.Row(int(eids[i])))
			}
			p := gas.ApplyEdgePooled(layer, base, ef, pool)
			if p != base {
				pend = p
			}
			return p.Row(0), 1
		}, pool)
		if pend != nil {
			pool.Put(pend)
		}
	}

	if keepsEmit(layer) {
		aggr.Self = rowMat(&d.payMats[w], prev.Row(int(v)))
	}
	state := rowMat(&d.stateMats[w], d.layers[k-1].Row(int(v)))
	out := gas.ApplyNodePooled(layer, state, aggr, pool)
	releaseAggregated(pool, aggr)
	row := d.layers[k].Row(int(v))
	changed := !sameBits(row, out.Row(0))
	if changed {
		copy(row, out.Row(0))
		if k < d.model.NumLayers() && d.emits[k] {
			deg := d.degs[w][:]
			deg[0] = int32(d.g.OutDegree(v))
			emitRow(emitterOf(d.model.Layers[k]), &d.payMats[w], &d.stateMats[w], d.msgs[k].Row(int(v)), row, deg, pool)
		}
		d.dirtyStep[v] = int32(k)
	}
	pool.Put(out)
	return changed
}

// Compute implements pregel.VertexProgram, which the engine requires of
// every program; the delta pass runs on the batched plane only.
func (d *deltaDriver) Compute(*pregel.Context[deltaVtx, deltaPing], []deltaPing) {
	panic("inference: deltaDriver runs on the batched plane only")
}

// ComputeBatch implements pregel.BatchProgram. The frontier restricts it to
// computed (active or pinged) rows of the partition; everything else keeps
// its resident slab rows untouched. Work per superstep is proportional to
// the surviving wave, not the partition.
func (d *deltaDriver) ComputeBatch(ctx *pregel.BatchContext[deltaVtx, deltaPing]) {
	w, k := ctx.WorkerID(), ctx.Superstep
	owned := ctx.Owned()
	if k == 0 {
		for li, v := range owned {
			if !ctx.Computed(li) {
				continue
			}
			d.seedStep(ctx, v)
		}
		return
	}
	off, _ := ctx.InboxCSR()
	var cost int64
	for li, v := range owned {
		if !ctx.Computed(li) {
			continue
		}
		pinged := off[li+1] > off[li]
		if d.step(ctx, w, v, k, pinged) {
			ctx.Halt(li)
		}
		cost += layerNodeFlops(d.model.Layers[k-1]) + int64(d.g.InDegree(v))*layerMsgFlops(d.model.Layers[k-1])
	}
	ctx.AddCost(cost)
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
// all superstep-to-superstep state outside the engine's vertex values.
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
