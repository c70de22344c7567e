package inference

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// The compute plane of the Pregel GNN driver: pregel.BatchProgram
// implemented as partition-granularity gather/apply/scatter, the data flow
// the paper's vectorized GAS stages describe. Per-vertex work fuses into a
// handful of dense kernel calls per worker per superstep:
//
//	gather  — one CSR segment-reduce over the worker's whole columnar inbox
//	          (tensor.SegmentSumViewsInto / SegmentExtremeViewsInto over
//	          zero-copy arena views), or for Union the payload views as is
//	apply   — one pooled (N_local x D) @ (D x D') apply_node over the state
//	          slab, driving the parallel MatMul kernels
//	scatter — for a layer that reads its emitted rows back (GAT), one
//	          pooled emit over the slab, kept for the next apply; then
//	          scatterColumnar walked over slab rows in owned-vertex order
//
// Vertex states live in one row-major tensor.Matrix slab per worker (row li
// = local vertex index li, the same dense index the inbox CSR uses), drawn
// from the worker's pool and recycled every superstep.
//
// Bit-identity with the reference forward, across worker counts and
// placements, holds because every fused stage preserves per-vertex operand
// order: segment reduces fold each vertex's inbox range in delivery order
// (ascending source, placement-independent), the MatMul kernels accumulate
// each output row independently in ascending-k order regardless of row
// count, and scatter issues each vertex's sends in owned-vertex order. One
// goroutine owns each slab row end to end, so parallel execution cannot
// reorder anything a row observes.

// ComputeBatch implements pregel.BatchProgram: superstep 0 materializes the
// feature slab and scatters h^0; superstep k applies layer k-1 to the whole
// partition (a RunInduced pass: to its live rows, see liveRows); the final
// superstep halts every vertex, leaving the logits in the state slabs for
// RunPregel to collect.
func (d *pregelDriver) ComputeBatch(ctx *pregel.BatchContext[vtxValue, gnnMsg]) {
	w, k := ctx.WorkerID(), ctx.Superstep
	owned := ctx.Owned()
	numLayers := d.model.NumLayers()
	if k == 0 {
		// Initialization: raw features become h^0, gathered into the
		// partition's slab (strided rows of the feature matrix).
		rows := len(owned)
		if d.live != nil {
			rows = d.live[w].n[0]
		}
		st := d.pools[w].GetNoZero(rows, d.sg.G.Features.Cols)
		for li, v := range owned {
			if r, ok := d.slabRow(w, li, 0); ok {
				copy(st.Row(r), d.sg.G.Features.Row(int(v)))
			}
		}
		d.states[w] = st
		d.scatterBatch(ctx, 0)
		return
	}

	layer := d.model.Layers[k-1]
	pool := d.pools[w]
	off, in := ctx.InboxCSR()
	aggr, msgs := d.gatherBatch(ctx, layer, off, in)
	st := d.states[w]
	live := st
	if d.live != nil {
		// The slab's live rows are a prefix (see liveRows). Apply is
		// row-independent — each output row depends on its own input and
		// aggregate rows only, the tensor kernels' contract — so dropping
		// the pruned rows changes no bit of the kept ones.
		lr := &d.live[w]
		n := lr.n[k]
		lr.slab = tensor.Matrix{Rows: n, Cols: st.Cols, Data: st.Data[:n*st.Cols]}
		live = &lr.slab
	}
	if e := d.emits[w]; e != nil {
		// The rows this partition emitted for the layer last superstep: the
		// live rows then, a prefix of which is live now.
		d.auxMats[w] = tensor.Matrix{Rows: live.Rows, Cols: e.Cols, Data: e.Data[:live.Rows*e.Cols]}
		aggr.Self = &d.auxMats[w]
	}
	out := gas.ApplyNodePooled(layer, live, aggr, pool)
	releaseAggregated(pool, aggr)
	pool.Put(d.emits[w])
	d.emits[w] = nil
	if d.opts.EmitEmbeddings && k == numLayers {
		d.embs[w] = st // penultimate slab, retained for the result
	} else {
		pool.Put(st)
	}
	d.states[w] = out
	if cl := d.opts.captureLayers; cl != nil {
		// Resident-state capture for the incremental Session: the new slab is
		// layer k's state for this partition. Checkpoint replays rewrite
		// identical rows, so capture composes with in-process fault recovery.
		for li, v := range owned {
			copy(cl[k].Row(int(v)), out.Row(li))
		}
	}
	ctx.AddCost(int64(out.Rows)*layerNodeFlops(layer) + int64(msgs)*layerMsgFlops(layer))

	if k == numLayers {
		// Last superstep: the slabs now hold the logits.
		ctx.HaltAll()
		return
	}
	d.scatterBatch(ctx, k)
}

// gatherBatch is gather_nbrs + aggregate for the whole partition in one
// shot: resolve every inbox message to a payload view (broadcast references
// through the worker's dense index), then segment-reduce the CSR directly
// into an N_local x D aggregate. No payload is copied for pooled reduces —
// the kernels read the arena extents in place, in delivery order. On a
// pruned pass the aggregate covers the live slab rows only (see
// liveRows.compact). It also returns how many messages the aggregate folds.
func (d *pregelDriver) gatherBatch(ctx *pregel.BatchContext[vtxValue, gnnMsg], layer gas.Conv, off []int32, in pregel.Batch) (*gas.Aggregated, int) {
	w := ctx.WorkerID()
	pool := d.pools[w]
	n := in.Len()

	// Resolve payload views and counts. Broadcast references need the
	// worker's dense index; without any (the common case — a cheap scan of
	// the kind column decides) the inbox columns are consumed as-is, with
	// no per-message header copying at all.
	pays, counts := in.Payloads, in.Counts
	if d.opts.Broadcast {
		hasRef := false
		for _, kd := range in.Kinds {
			if kd&3 == msgBCRef {
				hasRef = true
				break
			}
		}
		if hasRef {
			table := d.bcTable(w, ctx.ExecSeq(), ctx.ColumnarWorkerMail())
			rp, rc := d.resPays[w], d.resCounts[w]
			if cap(rp) < n {
				rp = make([][]float32, n)
				rc = make([]int32, n)
			} else {
				rp, rc = rp[:n], rc[:n]
			}
			for i := 0; i < n; i++ {
				switch in.Kinds[i] & 3 {
				case msgState:
					rp[i] = in.Payloads[i]
					rc[i] = in.Counts[i]
				case msgBCRef:
					p, ok := table.get(in.Srcs[i])
					if !ok {
						panic(fmt.Sprintf("inference: broadcast payload for node %d missing on worker %d", in.Srcs[i], w))
					}
					rp[i] = p
					rc[i] = 1
				default:
					panic(fmt.Sprintf("inference: unexpected message kind %d at vertex", in.Kinds[i]&3))
				}
			}
			d.resPays[w], d.resCounts[w] = rp, rc
			pays, counts = rp, rc
		}
	}

	nLocal := len(ctx.Owned())
	if d.live != nil {
		off, pays, counts, nLocal = d.live[w].compact(ctx.Superstep, off, pays, counts)
		n = len(pays)
	}
	dim := layer.InDim()
	a := &d.aggrs[w]
	a.Kind = layer.Reduce()
	a.Pooled, a.Msgs, a.Self = nil, nil, nil
	a.Counts, a.Dst = a.Counts[:0], a.Dst[:0]
	switch kind := layer.Reduce(); kind {
	case gas.ReduceUnion:
		// Union (GAT): the partition's payload views — emitted rows, read in
		// place — with destinations in local indices, the partition-local
		// form of the reference forward's edge-message data.
		if cap(a.Dst) < n {
			a.Dst = make([]int32, n)
		} else {
			a.Dst = a.Dst[:n]
		}
		for li := 0; li < nLocal; li++ {
			for i := off[li]; i < off[li+1]; i++ {
				a.Dst[i] = int32(li)
			}
		}
		a.Msgs = pays
	case gas.ReduceSum, gas.ReduceMean:
		pooled := pool.GetNoZero(nLocal, dim)
		tensor.SegmentSumViewsInto(pooled, off, pays)
		if cap(a.Counts) < nLocal {
			a.Counts = make([]int32, nLocal)
		} else {
			a.Counts = a.Counts[:nLocal]
		}
		for li := 0; li < nLocal; li++ {
			var c int32
			for i := off[li]; i < off[li+1]; i++ {
				c += counts[i]
			}
			a.Counts[li] = c
			if kind == gas.ReduceMean && c > 0 {
				// Same op order as the reference fold: multiply by the
				// reciprocal, never divide.
				inv := 1 / float32(c)
				row := pooled.Row(li)
				for j := range row {
					row[j] *= inv
				}
			}
		}
		a.Pooled = pooled
	case gas.ReduceMax, gas.ReduceMin:
		pooled := pool.GetNoZero(nLocal, dim)
		tensor.SegmentExtremeViewsInto(pooled, off, pays, kind == gas.ReduceMax)
		a.Pooled = pooled
	}
	return a, n
}

// scatterBatch walks the partition's slab rows in owned-vertex order through
// scatterColumnar. A layer that reads its emitted rows back has them emitted
// first, for every live row in one pooled call, and keeps them for the next
// apply; other emitters write one row at a time into scratch.
func (d *pregelDriver) scatterBatch(ctx *pregel.BatchContext[vtxValue, gnnMsg], k int) {
	w := ctx.WorkerID()
	st := d.states[w]
	owned := ctx.Owned()
	var kept *tensor.Matrix
	if keepsEmit(d.model.Layers[k]) {
		kept = d.emitSlab(w, st, k)
		d.emits[w] = kept
	}
	for li, v := range owned {
		if r, ok := d.slabRow(w, li, k); ok {
			var msg []float32
			if kept != nil {
				msg = kept.Row(r)
			} else {
				msg = d.vertexMsg(w, v, st.Row(r), k)
			}
			d.scatterColumnar(ctx, w, v, msg, k)
		}
	}
}

// emitSlab emits Layers[k]'s wire messages — a layer that reads them back,
// so out-degrees are not needed — for every row of worker w's state slab st
// (its live rows on a pruned pass) in one pooled call.
func (d *pregelDriver) emitSlab(w int, st *tensor.Matrix, k int) *tensor.Matrix {
	em := emitterOf(d.model.Layers[k])
	e := d.pools[w].GetNoZero(st.Rows, em.MsgDim())
	em.Emit(e, st, nil, d.pools[w])
	return e
}

// liveRows is one worker's layout for a depth-pruned RunInduced pass. A
// root's layer-L answer reads layer L-1 only at its in-neighbors, layer L-2
// only within two hops, and so on: superstep k needs layer k only at
// vertices of KHop depth <= L-k, and only they scatter h^k. The slab holds
// the worker's vertices sorted by depth (ties in local order), so the rows
// live at superstep k are always its first n[k] rows and each superstep
// simply narrows the slab; no state row is ever copied.
//
// Pruning cannot change a kept bit. KHop is a BFS over in-edges, so every
// induced edge u->v has depth(u) <= depth(v)+1: a vertex live at superstep
// k receives only from vertices live at superstep k-1, which all still
// scatter. Its inbox is therefore complete and in the engine's usual
// ascending-source order, and its aggregate folds exactly the messages, in
// exactly the order, of the unpruned pass.
type liveRows struct {
	order []int32       // slab row -> local index
	row   []int32       // local index -> slab row
	n     []int         // n[k]: rows live at superstep k
	slab  tensor.Matrix // header over the state slab's live rows

	// compact's reused output: the live rows' inbox, in slab order.
	off    []int32
	pays   [][]float32
	counts []int32
}

// layoutLive builds every worker's liveRows for a model of numLayers
// layers; depth is indexed by vertex id.
func layoutLive(part graph.Partitioner, depth []int32, numLayers int) []liveRows {
	live := make([]liveRows, part.NumWorkers())
	for w := range live {
		lr := &live[w]
		owned := part.NodesFor(w, len(depth))
		idx := make([]int32, 2*len(owned))
		lr.order, lr.row = idx[:len(owned)], idx[len(owned):]
		for li := range lr.order {
			lr.order[li] = int32(li)
		}
		slices.SortStableFunc(lr.order, func(a, b int32) int {
			return cmp.Compare(depth[owned[a]], depth[owned[b]])
		})
		for r, li := range lr.order {
			lr.row[li] = int32(r)
		}
		lr.n = make([]int, numLayers+1)
		for k := range lr.n {
			lr.n[k] = sort.Search(len(lr.order), func(r int) bool {
				return int(depth[owned[lr.order[r]]]) > numLayers-k
			})
		}
	}
	return live
}

// slabRow returns the slab row of worker w's local vertex li and whether it
// is live at superstep k. Every row is live on a full pass.
func (d *pregelDriver) slabRow(w, li, k int) (int, bool) {
	if d.live == nil {
		return li, true
	}
	lr := &d.live[w]
	r := int(lr.row[li])
	return r, r < lr.n[k]
}

// compact narrows a worker's inbox CSR to the rows live at superstep k, in
// slab order. It copies message headers and payload views, never payloads;
// each row's messages keep their delivery order.
func (lr *liveRows) compact(k int, off []int32, pays [][]float32, counts []int32) ([]int32, [][]float32, []int32, int) {
	n := lr.n[k]
	lr.off = append(lr.off[:0], 0)
	lr.pays, lr.counts = lr.pays[:0], lr.counts[:0]
	for _, li := range lr.order[:n] {
		lo, hi := off[li], off[li+1]
		lr.pays = append(lr.pays, pays[lo:hi]...)
		lr.counts = append(lr.counts, counts[lo:hi]...)
		lr.off = append(lr.off, int32(len(lr.pays)))
	}
	return lr.off, lr.pays, lr.counts, n
}

// progSnap is the checkpointed form of the driver's program-owned state:
// deep copies of the per-worker slabs, immutable after capture.
type progSnap struct {
	states []*tensor.Matrix
	emits  []*tensor.Matrix
	embs   []*tensor.Matrix
}

// SnapshotProgState implements pregel.ProgramStater: every piece of
// superstep-to-superstep state the driver keeps lives in its slabs.
func (d *pregelDriver) SnapshotProgState() any {
	return &progSnap{
		states: cloneAll(d.states),
		emits:  cloneAll(d.emits),
		embs:   cloneAll(d.embs),
	}
}

// RestoreProgState implements pregel.ProgramStater: reinstall a snapshot by
// deep copy, so the snapshot survives the replay's slab writes and a second
// recovery from the same checkpoint would still be sound.
func (d *pregelDriver) RestoreProgState(snap any) {
	s := snap.(*progSnap)
	restore := func(dst []*tensor.Matrix, src []*tensor.Matrix, w int) {
		d.pools[w].Put(dst[w])
		if src[w] == nil {
			dst[w] = nil
			return
		}
		m := d.pools[w].GetNoZero(src[w].Rows, src[w].Cols)
		copy(m.Data, src[w].Data)
		dst[w] = m
	}
	for w := range d.states {
		restore(d.states, s.states, w)
		restore(d.emits, s.emits, w)
		restore(d.embs, s.embs, w)
	}
}

// cloneAll deep-copies every non-nil slab of ms.
func cloneAll(ms []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(ms))
	for w, m := range ms {
		if m != nil {
			out[w] = m.Clone()
		}
	}
	return out
}
