package inference

import (
	"fmt"
	"reflect"
	"slices"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/cluster"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// Message kinds exchanged between vertices.
const (
	msgState     uint8 = iota // a (possibly partially aggregated) state vector
	msgBCRef                  // broadcast reference: look up Src in the worker table
	msgBCPayload              // broadcast payload addressed to a worker mailbox
)

// gnnMsg is the Pregel message. Payload carries a state vector; for
// commutative reduces under partial-gather it may be a pre-aggregated sum
// (Count tracks how many contributions it folds, keeping mean exact).
type gnnMsg struct {
	Kind    uint8
	Reduce  uint8
	Src     int32
	Count   int32
	Payload []float32
}

// combineMsgs is the boxed-plane Pregel combiner implementing
// partial-gather: messages for the same destination merge on the sender
// side when the consuming layer's reduce is commutative/associative. Union
// messages (GAT) and broadcast refs decline. The first merge copies a's
// payload (a view of the sending vertex's state, which must not be mutated)
// into an accumulator the combiner owns — marked by Src == -1, so every
// later merge for the same destination accumulates in place instead of
// allocating a fresh payload.
func combineMsgs(a, b gnnMsg) (gnnMsg, bool) {
	if a.Kind != msgState || b.Kind != msgState || a.Reduce != b.Reduce {
		return a, false
	}
	kind := gas.ReduceKind(a.Reduce)
	if !kind.Commutative() {
		return a, false
	}
	acc := a.Payload
	if a.Src != -1 {
		acc = make([]float32, len(a.Payload))
		copy(acc, a.Payload)
	}
	switch kind {
	case gas.ReduceSum, gas.ReduceMean:
		for i, v := range b.Payload {
			acc[i] += v
		}
	case gas.ReduceMax:
		for i, v := range b.Payload {
			acc[i] = max32(acc[i], v)
		}
	case gas.ReduceMin:
		for i, v := range b.Payload {
			acc[i] = min32(acc[i], v)
		}
	default:
		return a, false
	}
	return gnnMsg{Kind: msgState, Reduce: a.Reduce, Src: -1, Count: a.Count + b.Count, Payload: acc}, true
}

// Columnar kind tags: the engine's opaque kind byte carries the message
// kind in the low 2 bits and the reduce annotation above them, so the
// engine's same-tag gate before combining already implies "both are state
// messages consumed by the same reduce".
func colTag(kind, reduce uint8) uint8 { return kind | reduce<<2 }

// combineColumnar is the columnar-plane partial-gather combiner: it
// accumulates pay into the arena row acc in place — no allocation on any
// merge. The engine only calls it for equal tags and payload lengths.
func combineColumnar(tag uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	if tag&3 != msgState {
		return 0, false
	}
	switch gas.ReduceKind(tag >> 2) {
	case gas.ReduceSum, gas.ReduceMean:
		for i, v := range pay {
			acc[i] += v
		}
	case gas.ReduceMax:
		for i, v := range pay {
			acc[i] = max32(acc[i], v)
		}
	case gas.ReduceMin:
		for i, v := range pay {
			acc[i] = min32(acc[i], v)
		}
	default: // union is not commutative; refs never carry payloads to merge
		return 0, false
	}
	return accCount + payCount, true
}

// columnarBytes prices a columnar message from its tag and arena extent,
// matching the boxed MessageBytes exactly so IO stats are plane-invariant.
func columnarBytes(tag uint8, payloadLen int) int {
	if tag&3 == msgBCRef {
		return refBytes
	}
	return payloadBytes(payloadLen)
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// vtxValue is the per-vertex state: the current embedding h^k, which ends as
// the logit vector after the last layer, and aux. During the pass aux is the
// vertex's own emitted row when the next layer's apply reads it back
// (gas.Emitter.SelfEmitted); after the last apply it is the retained
// penultimate state when embeddings were requested.
type vtxValue struct {
	h   []float32
	aux []float32
}

// pregelDriver executes a gas.Model layer-by-layer on the Pregel engine. It
// runs on the engine's batched compute plane over columnar messages by
// default: each worker's vertex states live in one row-major tensor.Matrix
// slab, gather is one fused segment-reduce over the partition's whole CSR
// inbox, and apply is a single (N_local x D) @ (D x D') MatMul per layer —
// the dense-kernel data flow of the paper's pipeline, exercising the
// parallel tensor kernels (see pregel_batched.go). The classic per-vertex
// plane stays available behind Options.PerVertexCompute, and the boxed
// message plane (which is always per-vertex) behind Options.BoxedMessages;
// all three produce bit-identical predictions and IO stats.
type pregelDriver struct {
	model     *gas.Model
	sg        *ShadowGraph
	opts      Options
	threshold int
	part      graph.Partitioner
	columnar  bool
	batched   bool

	// Per-worker scratch (indexed by worker id; each worker touches only
	// its own slot, so parallel execution is race-free).
	bcTabs []bcIndex // dense broadcast lookup, rebuilt per ExecSeq
	bcStep []int
	bcHubs []int64
	bcSeen [][]bool // destination-worker dedup scratch for broadcast hubs
	// Per-worker reusable aggregate and matrix headers: the per-vertex
	// gather/apply path wraps existing float slices thousands of times per
	// superstep, so the wrappers live here instead of on the heap. auxMats
	// wraps whatever a step needs beside the state — an emit's destination,
	// an edge-feature row, the receivers' own emitted rows — one at a time.
	aggrs     []gas.Aggregated
	stateMats []tensor.Matrix
	auxMats   []tensor.Matrix
	// Per-worker buffer pools: aggregate, apply_node and state-slab scratch
	// recycles here instead of allocating every superstep.
	pools []*tensor.Pool

	// Batched plane: per-worker state slabs. states[w] is N_local x D_k with
	// local vertex li's h^k in row li; emits[w] holds the rows emitted for a
	// layer that reads them back, kept from scatter to the next apply;
	// embs[w] retains the penultimate slab when embeddings were requested.
	// resPays/resCounts are the broadcast-ref resolution scratch. msgRows is
	// the per-row emit scratch of every plane.
	states    []*tensor.Matrix
	emits     []*tensor.Matrix
	embs      []*tensor.Matrix
	resPays   [][][]float32
	resCounts [][]int32
	msgRows   [][]float32

	// Per-vertex plane: next-h rows are carved from one per-worker slab per
	// superstep instead of allocated per vertex. Two generations stay live
	// (the current superstep writes gen k while messages and apply read gen
	// k-1); the k-2 slab recycles through the worker pool — unless
	// checkpointing is on, where dropped slabs must stay intact because
	// engine snapshots alias their rows.
	hSlabs []hSlab
	hStep  []int // ExecSeq of the worker's current slab generation

	// live is the per-worker depth-pruning layout of a RunInduced pass; nil
	// on every full pass.
	live []liveRows
}

// hSlab is one worker's two-generation next-h slab state.
type hSlab struct {
	cur, prev *tensor.Matrix
	next      int // row carve cursor into cur
}

// seenScratch returns worker w's cleared destination-worker scratch,
// replacing the per-hub-vertex allocation of the seed scatter.
func (d *pregelDriver) seenScratch(w int) []bool {
	s := d.bcSeen[w]
	if s == nil {
		s = make([]bool, d.opts.NumWorkers)
		d.bcSeen[w] = s
	} else {
		for i := range s {
			s[i] = false
		}
	}
	return s
}

// Compute implements pregel.VertexProgram: superstep 0 initializes and
// scatters h^0; superstep k applies layer k-1; the final superstep attaches
// the prediction and halts.
func (d *pregelDriver) Compute(ctx *pregel.Context[vtxValue, gnnMsg], msgs []gnnMsg) {
	k := ctx.Superstep
	numLayers := d.model.NumLayers()
	if k == 0 {
		// Initialization: raw features become h^0 (the paper's "transform
		// raw node states into initial embeddings" is the identity here —
		// feature encoders would slot in at this point).
		ctx.Value.h = d.sg.G.Features.Row(int(ctx.ID))
		if kd := d.keepDim(0); kd > 0 {
			ctx.Value.aux = d.nextHRow(ctx, kd)
		}
		d.scatter(ctx, 0)
		return
	}

	layer := d.model.Layers[k-1]
	pool := d.pools[ctx.WorkerID()]
	state := rowMat(&d.stateMats[ctx.WorkerID()], ctx.Value.h)
	var aggr *gas.Aggregated
	var received int
	if d.columnar {
		in := ctx.ColumnarInbox()
		received = in.Len()
		aggr = d.gatherColumnar(ctx, layer, in, pool)
	} else {
		received = len(msgs)
		aggr = d.gatherStage(ctx, layer, msgs, pool)
	}
	if keepsEmit(layer) {
		aggr.Self = rowMat(&d.auxMats[ctx.WorkerID()], ctx.Value.aux)
	}
	out := gas.ApplyNodePooled(layer, state, aggr, pool)
	// The next state and, when the next layer reads it back, the row this
	// vertex is about to emit share one carved row.
	next := d.nextHRow(ctx, out.Cols+d.keepDim(k))
	copy(next, out.Row(0))
	ctx.Value.aux = next[out.Cols:]
	if d.opts.EmitEmbeddings && k == numLayers {
		ctx.Value.aux = ctx.Value.h // penultimate state, about to be replaced
	}
	ctx.Value.h = next[:out.Cols:out.Cols]
	if d.opts.captureLayers != nil {
		// Resident-state capture for the incremental Session: superstep k's
		// output is layer k's state. Checkpoint replays rewrite identical
		// rows, so capture composes with in-process fault recovery.
		copy(d.opts.captureLayers[k].Row(int(ctx.ID)), ctx.Value.h)
	}
	pool.Put(out)
	releaseAggregated(pool, aggr)
	ctx.AddCost(layerNodeFlops(layer) + int64(received)*layerMsgFlops(layer))

	if k == numLayers {
		// Last superstep: the prediction slice of the model is attached
		// here; h now holds the logits.
		ctx.VoteToHalt()
		return
	}
	d.scatter(ctx, k)
}

// keepDim is the width of the row a vertex keeps after scattering for
// Layers[k]: the layer's message when its apply reads it back, else 0 (and
// 0 past the last layer).
func (d *pregelDriver) keepDim(k int) int {
	if k < d.model.NumLayers() && keepsEmit(d.model.Layers[k]) {
		return emitterOf(d.model.Layers[k]).MsgDim()
	}
	return 0
}

// nextHRow returns the row the current vertex's next state is written to,
// carved from the worker's per-superstep slab — one pool draw per worker
// per superstep instead of one allocation per vertex. The first Compute of
// a worker's superstep rotates generations: the slab whose rows no message
// or apply can still reference (gen k-2; gen k-1 backs this superstep's
// reads and any in-flight boxed payloads) returns to the worker pool.
// Under checkpointing the retired slab is dropped to the GC instead: every
// generation is written exactly once, so engine snapshots — which alias
// value slices into these rows — stay intact for replay.
func (d *pregelDriver) nextHRow(ctx *pregel.Context[vtxValue, gnnMsg], cols int) []float32 {
	w := ctx.WorkerID()
	s := &d.hSlabs[w]
	if d.hStep[w] != ctx.ExecSeq() {
		d.hStep[w] = ctx.ExecSeq()
		if d.opts.CheckpointEvery == 0 {
			d.pools[w].Put(s.prev)
		}
		s.prev = s.cur
		s.cur = d.pools[w].GetNoZero(d.part.OwnedCount(w, d.sg.G.NumNodes), cols)
		s.next = 0
	}
	row := s.cur.Row(s.next)
	s.next++
	return row
}

// gatherStage is gather_nbrs + aggregate: vectorize received messages
// (resolving broadcast references through the worker's broadcast index) and
// reduce them per the layer's annotation. Aggregate buffers come from the
// worker's pool; the caller releases them via releaseAggregated once
// apply_node is done.
func (d *pregelDriver) gatherStage(ctx *pregel.Context[vtxValue, gnnMsg], layer gas.Conv, msgs []gnnMsg, pool *tensor.Pool) *gas.Aggregated {
	table := d.bcBoxed(ctx)
	dim := layer.InDim()

	resolve := func(m gnnMsg) ([]float32, int32) {
		switch m.Kind {
		case msgState:
			return m.Payload, m.Count
		case msgBCRef:
			p, ok := table.get(m.Src)
			if !ok {
				panic(fmt.Sprintf("inference: broadcast payload for node %d missing on worker %d", m.Src, ctx.WorkerID()))
			}
			return p, 1
		default:
			panic(fmt.Sprintf("inference: unexpected message kind %d at vertex", m.Kind))
		}
	}

	return vectorizeAggregateInto(&d.aggrs[ctx.WorkerID()], layer.Reduce(), dim, len(msgs), func(i int) ([]float32, int32) {
		return resolve(msgs[i])
	}, pool)
}

// gatherColumnar is gatherStage for the columnar plane: message fields are
// read straight out of the inbox's column views (payloads are arena
// extents, never re-boxed), with broadcast references resolved through the
// broadcast index.
func (d *pregelDriver) gatherColumnar(ctx *pregel.Context[vtxValue, gnnMsg], layer gas.Conv, in pregel.Batch, pool *tensor.Pool) *gas.Aggregated {
	table := d.bcColumnar(ctx.WorkerID(), ctx.ExecSeq(), ctx.ColumnarWorkerMail())
	dim := layer.InDim()
	return vectorizeAggregateInto(&d.aggrs[ctx.WorkerID()], layer.Reduce(), dim, in.Len(), func(i int) ([]float32, int32) {
		switch in.Kinds[i] & 3 {
		case msgState:
			return in.Payloads[i], in.Counts[i]
		case msgBCRef:
			p, ok := table.get(in.Srcs[i])
			if !ok {
				panic(fmt.Sprintf("inference: broadcast payload for node %d missing on worker %d", in.Srcs[i], ctx.WorkerID()))
			}
			return p, 1
		default:
			panic(fmt.Sprintf("inference: unexpected message kind %d at vertex", in.Kinds[i]&3))
		}
	}, pool)
}

// bcBoxed lazily rebuilds worker w's broadcast index for the current
// superstep from its boxed mailbox. Both rebuild caches key on ExecSeq, not
// Superstep: a checkpoint-recovery replay revisits superstep numbers with
// rebuilt mailboxes, and the pre-failure payload views would point into
// recycled storage.
func (d *pregelDriver) bcBoxed(ctx *pregel.Context[vtxValue, gnnMsg]) *bcIndex {
	w := ctx.WorkerID()
	t := &d.bcTabs[w]
	if d.bcStep[w] == ctx.ExecSeq() {
		return t
	}
	t.reset()
	n := d.sg.G.NumNodes
	for _, m := range ctx.WorkerMail() {
		if m.Kind == msgBCPayload {
			t.put(n, m.Src, m.Payload)
		}
	}
	d.bcStep[w] = ctx.ExecSeq()
	return t
}

// bcColumnar is bcBoxed over a columnar mailbox; shared by the per-vertex
// and batched planes. The index holds zero-copy payload views valid for the
// current superstep only.
func (d *pregelDriver) bcColumnar(w, execSeq int, mail pregel.Batch) *bcIndex {
	t := &d.bcTabs[w]
	if d.bcStep[w] == execSeq {
		return t
	}
	t.reset()
	n := d.sg.G.NumNodes
	for i := 0; i < mail.Len(); i++ {
		if mail.Kinds[i]&3 == msgBCPayload {
			t.put(n, mail.Srcs[i], mail.Payloads[i])
		}
	}
	d.bcStep[w] = execSeq
	return t
}

// colSender is the columnar messaging surface shared by the per-vertex
// Context and the batched BatchContext (and, through boxedSender, the boxed
// plane). Every plane routes its scatter through scatterColumnar against
// this interface, so the bit-identity argument between planes reduces to
// "same function, called for the same vertices in the same order".
type colSender interface {
	SendColumnar(dst int32, kind uint8, src, count int32, payload []float32)
	SendColumnarFan(dsts []int32, kind uint8, src, count int32, payload []float32)
	SendColumnarToWorker(w int, kind uint8, src, count int32, payload []float32)
}

// boxedSender adapts the boxed plane's Context to colSender. Where a
// columnar send copies its payload into the arena, a boxed send gives the
// message its own copy — one per call, which a fan's destinations share
// (the combiner copies before mutating) — so the payload may be scratch.
type boxedSender struct {
	ctx *pregel.Context[vtxValue, gnnMsg]
}

func boxedMsg(tag uint8, src, count int32, payload []float32) gnnMsg {
	return gnnMsg{Kind: tag & 3, Reduce: tag >> 2, Src: src, Count: count, Payload: slices.Clone(payload)}
}

func (s boxedSender) SendColumnar(dst int32, tag uint8, src, count int32, payload []float32) {
	s.ctx.SendMessage(dst, boxedMsg(tag, src, count, payload))
}

func (s boxedSender) SendColumnarFan(dsts []int32, tag uint8, src, count int32, payload []float32) {
	m := boxedMsg(tag, src, count, payload)
	for _, dst := range dsts {
		s.ctx.SendMessage(dst, m)
	}
}

func (s boxedSender) SendColumnarToWorker(w int, tag uint8, src, count int32, payload []float32) {
	s.ctx.SendToWorker(w, boxedMsg(tag, src, count, payload))
}

// scatter is emit + apply_edge + scatter_nbrs for the messages consumed by
// Layers[k] in the next superstep, on either per-vertex message plane.
func (d *pregelDriver) scatter(ctx *pregel.Context[vtxValue, gnnMsg], k int) {
	var send colSender = ctx
	if !d.columnar {
		send = boxedSender{ctx}
	}
	w := ctx.WorkerID()
	d.scatterColumnar(send, w, ctx.ID, d.vertexMsg(w, ctx.ID, ctx.Value.h, ctx.Value.aux, k), k)
}

// scatterColumnar scatters one vertex's wire message h (see vertexMsg): the
// strategy logic (hub decision, destination-worker dedup, per-edge
// apply_edge with pooled results) shared by every plane. Every send copies
// its payload, so h — including an emit scratch row — stays reusable the
// moment the call returns.
func (d *pregelDriver) scatterColumnar(send colSender, w int, v int32, h []float32, k int) {
	sendLayer := d.model.Layers[k]
	dsts, eids := d.sg.G.OutNeighbors(v), d.sg.G.OutEdgeIDs(v)
	d.captureMsg(v, k, h)
	reduce := uint8(sendLayer.Reduce())

	if d.opts.Broadcast && sendLayer.BroadcastSafe() && len(dsts) > d.threshold {
		d.bcHubs[w]++
		// One payload per destination worker...
		seen := d.seenScratch(w)
		for _, dst := range dsts {
			seen[d.part.WorkerFor(dst)] = true
		}
		for dw, ok := range seen {
			if ok {
				send.SendColumnarToWorker(dw, colTag(msgBCPayload, 0), v, 0, h)
			}
		}
		// ...and a lightweight, payload-free reference along every out-edge.
		send.SendColumnarFan(dsts, colTag(msgBCRef, reduce), v, 0, nil)
		return
	}

	tag := colTag(msgState, reduce)
	if sendLayer.BroadcastSafe() {
		// apply_edge is the identity: the vertex state is the payload for
		// every out-edge — fanned, so the arena stores it once per
		// destination worker no matter the out-degree.
		send.SendColumnarFan(dsts, tag, v, 1, h)
		return
	}
	// Edge-dependent messages: run apply_edge per out-edge. The result is
	// pool-drawn and recycled as soon as the arena has its copy.
	state := rowMat(&d.stateMats[w], h)
	pool := d.pools[w]
	for i, dst := range dsts {
		var ef *tensor.Matrix
		if d.sg.G.EdgeFeatures != nil {
			ef = rowMat(&d.auxMats[w], d.sg.G.EdgeFeatures.Row(int(eids[i])))
		}
		payload := gas.ApplyEdgePooled(sendLayer, state, ef, pool)
		send.SendColumnar(dst, tag, v, 1, payload.Row(0))
		if payload != state {
			pool.Put(payload)
		}
	}
}

// vertexMsg returns vertex v's wire message for Layers[k] from its state h:
// h itself when the layer does not emit, else the layer's Emit through the
// serial 1-row kernel — into keep, the vertex's kept row, when the layer
// reads its rows back, else into worker w's scratch row. Mirrors emit with
// the original node's out-degree so shadow-nodes stays result-neutral.
func (d *pregelDriver) vertexMsg(w int, v int32, h, keep []float32, k int) []float32 {
	em := emitterOf(d.model.Layers[k])
	if em == nil {
		return h
	}
	msg := keep
	if !em.SelfEmitted() {
		if cap(d.msgRows[w]) < em.MsgDim() {
			d.msgRows[w] = make([]float32, em.MsgDim())
		}
		msg = d.msgRows[w][:em.MsgDim()]
	}
	emitRow(em, &d.auxMats[w], &d.stateMats[w], msg, h, d.sg.OrigOutDeg[v:v+1], d.pools[w])
	return msg
}

// captureMsg copies v's layer-k wire message into the Session's message
// slab when the pass captures one for that layer (see Options.captureMsgs).
func (d *pregelDriver) captureMsg(v int32, k int, msg []float32) {
	if cm := d.opts.captureMsgs; cm != nil && cm[k] != nil {
		copy(cm[k].Row(int(v)), msg)
	}
}

// RunPregel executes full-graph inference of model over g on the Pregel
// backend.
func RunPregel(model *gas.Model, g *graph.Graph, opts Options) (*Result, error) {
	return runPregel(model, g, opts, nil)
}

// RunInduced answers a k-hop query: it runs model over the induced subgraph
// ind.G on the Pregel backend, where degree-scaled layers see ind.OutDegrees
// (the full graph's out-degrees) and superstep k computes layer k only at
// vertices with ind.Depth <= L-k, the rows an answer at depth 0 reads. When
// ind comes from a KHop of at least model.NumLayers() hops, the logits at
// depth 0 (the roots and the virtual root) are bit-identical to the
// full-graph pass. Every other row of Result.Logits is zero, not a logit,
// and its Classes and MultiLabel entries mean nothing. Stats.StepActive
// counts the rows each superstep computed.
//
// Only opts.NumWorkers, Parallel, Tuning and Cancel apply; RunInduced
// returns an error if any other field is set.
func RunInduced(model *gas.Model, ind *graph.Induced, opts Options) (*Result, error) {
	rest := opts
	rest.NumWorkers, rest.Parallel, rest.Tuning, rest.Cancel = 0, false, tensor.Tuning{}, nil
	if !reflect.ValueOf(rest).IsZero() {
		return nil, fmt.Errorf("inference: RunInduced takes only NumWorkers, Parallel, Tuning and Cancel")
	}
	if n := ind.G.NumNodes; len(ind.OutDegrees) != n || len(ind.Depth) != n {
		return nil, fmt.Errorf("inference: induced graph has %d nodes, %d out-degrees and %d depths", n, len(ind.OutDegrees), len(ind.Depth))
	}
	return runPregel(model, ind.G, opts, ind)
}

// runPregel is RunPregel, depth-pruned over ind when it is non-nil (see
// RunInduced).
func runPregel(model *gas.Model, g *graph.Graph, opts Options, ind *graph.Induced) (*Result, error) {
	opts = opts.withDefaults()
	if err := validateModelGraph(model, g); err != nil {
		return nil, err
	}
	if opts.Pipelined && opts.BoxedMessages {
		return nil, fmt.Errorf("inference: Pipelined requires the columnar message plane (unset BoxedMessages)")
	}
	if opts.captureLayers != nil && opts.ShadowNodes {
		return nil, fmt.Errorf("inference: layer capture is incompatible with ShadowNodes")
	}
	defer applyTuning(opts)()
	if opts.CheckpointDir != "" && opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 2
	}
	threshold := opts.threshold(g)

	sg := IdentityShadow(g)
	if opts.ShadowNodes {
		sg = BuildShadowGraph(g, threshold)
	}
	if ind != nil {
		// Degree-scaled layers scale by the full graph's out-degree, which
		// the induced graph's structural degree undercounts.
		sg.OrigOutDeg = ind.OutDegrees
	}

	driver := &pregelDriver{
		model:     model,
		sg:        sg,
		opts:      opts,
		threshold: threshold,
		part:      opts.partition(sg.G),
		columnar:  !opts.BoxedMessages,
		batched:   !opts.BoxedMessages && !opts.PerVertexCompute,
		bcTabs:    make([]bcIndex, opts.NumWorkers),
		bcStep:    make([]int, opts.NumWorkers),
		bcHubs:    make([]int64, opts.NumWorkers),
		bcSeen:    make([][]bool, opts.NumWorkers),
		aggrs:     make([]gas.Aggregated, opts.NumWorkers),
		stateMats: make([]tensor.Matrix, opts.NumWorkers),
		auxMats:   make([]tensor.Matrix, opts.NumWorkers),
		pools:     make([]*tensor.Pool, opts.NumWorkers),
		states:    make([]*tensor.Matrix, opts.NumWorkers),
		emits:     make([]*tensor.Matrix, opts.NumWorkers),
		embs:      make([]*tensor.Matrix, opts.NumWorkers),
		resPays:   make([][][]float32, opts.NumWorkers),
		resCounts: make([][]int32, opts.NumWorkers),
		msgRows:   make([][]float32, opts.NumWorkers),
		hSlabs:    make([]hSlab, opts.NumWorkers),
		hStep:     make([]int, opts.NumWorkers),
	}
	for i := range driver.bcStep {
		driver.bcStep[i] = -1
		driver.hStep[i] = -1
		driver.pools[i] = tensor.NewPool()
	}
	if ind != nil {
		driver.live = layoutLive(driver.part, ind.Depth, model.NumLayers())
	}

	cfg := pregel.Config[gnnMsg]{
		NumWorkers:       opts.NumWorkers,
		Partitioner:      driver.part,
		MaxSupersteps:    model.NumLayers() + 1,
		Parallel:         opts.Parallel,
		Batched:          driver.batched,
		Pipelined:        opts.Pipelined,
		ChunkSize:        opts.PipelineChunk,
		PipelineDepth:    opts.PipelineDepth,
		CheckpointEvery:  opts.CheckpointEvery,
		FailAtSuperstep:  opts.FailAtSuperstep,
		Faults:           opts.Faults,
		PipelineWatchdog: opts.PipelineWatchdog,
		SuperstepHook:    opts.SuperstepHook,
		Cancel:           opts.Cancel,
	}
	if driver.columnar {
		ops := &pregel.ColumnarOps{Bytes: columnarBytes}
		if opts.PartialGather {
			ops.Combine = combineColumnar
		}
		// Pre-size send buffers for the expected steady state: one message
		// per edge spreads edges/workers² headers per sender→receiver pair.
		// Fanned identity payloads dedup the arena well below msgs × dim, so
		// the float reserve stays at half that bound.
		maxDim := model.InDim()
		for _, l := range model.Layers {
			if l.OutDim() > maxDim {
				maxDim = l.OutDim()
			}
		}
		perBuf := sg.G.NumEdges/(opts.NumWorkers*opts.NumWorkers) + 1
		ops.ReserveMsgs = perBuf
		ops.ReserveFloats = perBuf*maxDim/2 + maxDim
		cfg.Columnar = ops
	} else {
		cfg.MessageBytes = func(m gnnMsg) int {
			if m.Kind == msgBCRef {
				return refBytes
			}
			return payloadBytes(len(m.Payload))
		}
		if opts.PartialGather {
			cfg.Combiner = combineMsgs
		}
	}

	eng := pregel.NewEngine[vtxValue, gnnMsg](pregel.GraphTopology{G: sg.G}, driver, cfg)
	resumed := false
	if opts.CheckpointDir != "" {
		store, err := checkpoint.NewStore(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		store.Sync = opts.CheckpointSync
		eng.SetSink(store, gnnCodec{})
		if opts.Resume {
			if resumed, err = eng.Resume(); err != nil {
				return nil, err
			}
		}
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}

	res := &Result{Logits: tensor.New(g.NumNodes, model.NumClasses)}
	if opts.EmitEmbeddings {
		embDim := model.InDim()
		if n := model.NumLayers(); n > 1 {
			embDim = model.Layers[n-2].OutDim()
		}
		res.Embeddings = tensor.New(g.NumNodes, embDim)
	}
	if driver.batched {
		// Batched plane: final states live in the per-worker slabs, row li
		// holding the vertex with local index li.
		for w, st := range driver.states {
			if st.Cols != model.NumClasses {
				return nil, fmt.Errorf("inference: worker %d finished with dim %d, want %d classes", w, st.Cols, model.NumClasses)
			}
		}
		for v := 0; v < g.NumNodes; v++ {
			w, li := driver.part.WorkerFor(int32(v)), driver.part.LocalIndex(int32(v))
			r, ok := driver.slabRow(w, li, model.NumLayers())
			if !ok {
				continue // pruned: the row stays zero
			}
			res.Logits.SetRow(v, driver.states[w].Row(r))
			if res.Embeddings != nil {
				res.Embeddings.SetRow(v, driver.embs[w].Row(li))
			}
		}
	} else {
		for v := 0; v < g.NumNodes; v++ {
			val := eng.VertexValue(int32(v))
			if len(val.h) != model.NumClasses {
				return nil, fmt.Errorf("inference: node %d finished with dim %d, want %d classes", v, len(val.h), model.NumClasses)
			}
			res.Logits.SetRow(v, val.h)
			if res.Embeddings != nil {
				res.Embeddings.SetRow(v, val.aux)
			}
		}
	}
	res.finalize(model)
	res.Stats, res.Phases = pregelStats(eng, driver, model, sg, opts)
	if driver.live != nil {
		// The engine counts every vertex it hands the batch; report the rows
		// the pruned pass actually computed.
		for k := range res.Stats.StepActive {
			res.Stats.StepActive[k] = 0
			for _, lr := range driver.live {
				res.Stats.StepActive[k] += int64(lr.n[k])
			}
		}
	}
	res.Stats.Resumed = resumed
	res.Stats.Recoveries = eng.Recoveries()
	cs := eng.CheckpointStats()
	res.Stats.Checkpoints = cs.Checkpoints
	res.Stats.CheckpointBytes = cs.Bytes
	res.Stats.CheckpointWallNs = cs.SnapshotNs
	res.Stats.PersistWallNs = cs.PersistNs
	res.Stats.WatchdogTrips = eng.WatchdogTrips()
	return res, nil
}

// pregelStats converts engine metrics into run stats and cluster phases.
func pregelStats(eng *pregel.Engine[vtxValue, gnnMsg], driver *pregelDriver, model *gas.Model, sg *ShadowGraph, opts Options) (Stats, []cluster.Phase) {
	resident := residentBytes(sg.G, driver.part, model, opts.NumWorkers)
	st, phases := statsFromMetrics(eng.Metrics(), eng.Supersteps(), model, resident, opts.NumWorkers)
	st.ShadowMirrors = int64(sg.Mirrors)
	for _, n := range driver.bcHubs {
		st.BroadcastHubs += n
	}
	return st, phases
}

// residentBytes estimates each worker's resident footprint: every owned
// vertex holds its widest embedding plus its out-edge structure.
func residentBytes(g *graph.Graph, part graph.Partitioner, model *gas.Model, numWorkers int) []int64 {
	maxDim := model.InDim()
	for _, l := range model.Layers {
		if l.OutDim() > maxDim {
			maxDim = l.OutDim()
		}
	}
	resident := make([]int64, numWorkers)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		resident[part.WorkerFor(v)] += int64(4*maxDim) + int64(8*g.OutDegree(v))
	}
	return resident
}

// statsFromMetrics converts engine step metrics into run stats and cluster
// phases — shared by the one-shot drivers and the incremental Session's
// delta passes (whose engine is instantiated over different type parameters,
// hence the plain-metrics signature).
func statsFromMetrics(metrics [][]pregel.StepMetrics, supersteps int, model *gas.Model, resident []int64, numWorkers int) (Stats, []cluster.Phase) {
	st := Stats{
		Supersteps:      supersteps,
		WorkerBytesIn:   make([]int64, numWorkers),
		WorkerBytesOut:  make([]int64, numWorkers),
		WorkerFlops:     make([]int64, numWorkers),
		WorkerInRecords: make([]int64, numWorkers),
	}
	var phases []cluster.Phase
	for _, step := range metrics {
		s := step[0].Superstep // robust under checkpoint replays
		for len(st.StepActive) <= s {
			st.StepActive = append(st.StepActive, 0)
		}
		st.StepActive[s] = 0 // set, not add: replays revisit superstep numbers
		ph := cluster.Phase{Name: fmt.Sprintf("superstep-%d", s), Workers: make([]cluster.WorkerLoad, numWorkers)}
		for w, m := range step {
			st.StepActive[s] += int64(m.ActiveVertices)
			flops := m.ComputeCost
			// Partial-gather moves aggregation flops to the sender: charge
			// combined-away messages at the sending worker against the layer
			// that would have consumed them.
			if s < model.NumLayers() {
				flops += m.CombinedAway * layerMsgFlops(model.Layers[s])
			}
			ph.Workers[w] = cluster.WorkerLoad{
				Flops:    flops,
				BytesIn:  m.BytesReceived,
				BytesOut: m.BytesSent,
				MsgsIn:   m.MessagesReceived,
				MsgsOut:  m.MessagesSent,
				PeakMem:  resident[w] + m.BytesReceived,
			}
			st.MessagesSent += m.MessagesSent
			st.BytesSent += m.BytesSent
			st.BytesReceived += m.BytesReceived
			st.RemoteMessages += m.RemoteMessagesSent
			st.RemoteBytes += m.RemoteBytesSent
			st.CombinedAway += m.CombinedAway
			st.WorkerBytesIn[w] += m.BytesReceived
			st.WorkerBytesOut[w] += m.BytesSent
			st.WorkerFlops[w] += flops
			st.WorkerInRecords[w] += m.MessagesReceived
		}
		phases = append(phases, ph)
	}
	return st, phases
}
