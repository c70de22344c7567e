package inference

import (
	"fmt"
	"reflect"

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

// columnarBytes prices a columnar message from its tag and arena extent.
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

// vtxValue and gnnMsg carry nothing: vertex states live in the driver's
// per-worker slabs and messages travel as columnar rows, so the engine's
// per-vertex value array and its boxed message type are never read.
type (
	vtxValue struct{}
	gnnMsg   struct{}
)

// pregelDriver executes a gas.Model layer-by-layer on the Pregel engine's
// batched compute plane over columnar messages: each worker's vertex states
// live in one row-major tensor.Matrix slab, gather is one fused
// segment-reduce over the partition's whole CSR inbox, and apply is a single
// (N_local x D) @ (D x D') MatMul per layer — the dense-kernel data flow of
// the paper's pipeline, exercising the parallel tensor kernels (see
// pregel_batched.go).
type pregelDriver struct {
	model     *gas.Model
	sg        *ShadowGraph
	opts      Options
	threshold int
	part      graph.Partitioner

	// Per-worker scratch (indexed by worker id; each worker touches only
	// its own slot, so parallel execution is race-free).
	bcTabs []bcIndex // dense broadcast lookup, rebuilt per ExecSeq
	bcStep []int
	bcHubs []int64
	bcSeen [][]bool // destination-worker dedup scratch for broadcast hubs
	// Per-worker reusable aggregate and matrix headers, so the row views a
	// superstep wraps thousands of times live here instead of on the heap.
	// auxMats wraps whatever a step needs beside the state — an emit's
	// destination, an edge-feature row, the receivers' own emitted rows —
	// one at a time.
	aggrs     []gas.Aggregated
	stateMats []tensor.Matrix
	auxMats   []tensor.Matrix
	// Per-worker buffer pools: aggregate, apply_node and state-slab scratch
	// recycles here instead of allocating every superstep.
	pools []*tensor.Pool

	// Per-worker state slabs. states[w] is N_local x D_k with local vertex
	// li's h^k in row li; emits[w] holds the rows emitted for a layer that
	// reads them back, kept from scatter to the next apply; embs[w] retains
	// the penultimate slab when embeddings were requested. resPays/resCounts
	// are the broadcast-ref resolution scratch, msgRows the per-row emit
	// scratch.
	states    []*tensor.Matrix
	emits     []*tensor.Matrix
	embs      []*tensor.Matrix
	resPays   [][][]float32
	resCounts [][]int32
	msgRows   [][]float32

	// live is the per-worker depth-pruning layout of a RunInduced pass; nil
	// on every full pass.
	live []liveRows
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

// Compute implements pregel.VertexProgram, which the engine requires of
// every program; the driver runs on the batched plane only (ComputeBatch).
func (d *pregelDriver) Compute(*pregel.Context[vtxValue, gnnMsg], []gnnMsg) {
	panic("inference: pregelDriver runs on the batched plane only")
}

// bcTable lazily rebuilds worker w's broadcast index for the current
// superstep from its columnar worker mailbox. The index holds zero-copy
// payload views valid for the current superstep only, so the cache keys on
// ExecSeq, not Superstep: a checkpoint-recovery replay revisits superstep
// numbers with rebuilt mailboxes, and the pre-failure views would point into
// recycled storage.
func (d *pregelDriver) bcTable(w, execSeq int, mail pregel.Batch) *bcIndex {
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

// colSender is the columnar messaging surface of pregel.BatchContext, which
// the GNN driver and the Session's delta driver instantiate over different
// value and message types.
type colSender interface {
	SendColumnar(dst int32, kind uint8, src, count int32, payload []float32)
	SendColumnarFan(dsts []int32, kind uint8, src, count int32, payload []float32)
	SendColumnarToWorker(w int, kind uint8, src, count int32, payload []float32)
}

// scatterColumnar scatters one vertex's wire message h (see vertexMsg): the
// strategy logic — hub decision, destination-worker dedup, per-edge
// apply_edge with pooled results. Every send copies its payload, so h —
// including an emit scratch row — stays reusable the moment the call
// returns.
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

// vertexMsg returns vertex v's wire message for Layers[k], a layer that
// does not read its emitted rows back, from its state h: h itself when the
// layer does not emit, else the layer's Emit through the serial 1-row kernel
// into worker w's scratch row. Emits with the original node's out-degree so
// shadow-nodes stays result-neutral.
func (d *pregelDriver) vertexMsg(w int, v int32, h []float32, k int) []float32 {
	em := emitterOf(d.model.Layers[k])
	if em == nil {
		return h
	}
	if cap(d.msgRows[w]) < em.MsgDim() {
		d.msgRows[w] = make([]float32, em.MsgDim())
	}
	msg := d.msgRows[w][:em.MsgDim()]
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
	}
	for i := range driver.bcStep {
		driver.bcStep[i] = -1
		driver.pools[i] = tensor.NewPool()
	}
	if ind != nil {
		driver.live = layoutLive(driver.part, ind.Depth, model.NumLayers())
	}

	cfg := pregel.Config[gnnMsg]{
		NumWorkers:      opts.NumWorkers,
		Partitioner:     driver.part,
		MaxSupersteps:   model.NumLayers() + 1,
		Parallel:        opts.Parallel,
		Batched:         true,
		CheckpointEvery: opts.CheckpointEvery,
		Faults:          opts.Faults,
		SuperstepHook:   opts.SuperstepHook,
		Cancel:          opts.Cancel,
	}
	ops := &pregel.ColumnarOps{Bytes: columnarBytes}
	if opts.PartialGather {
		ops.Combine = combineColumnar
	}
	// Pre-size send buffers for the expected steady state: one message per
	// edge spreads edges/workers² headers per sender→receiver pair. Fanned
	// identity payloads dedup the arena well below msgs × dim, so the float
	// reserve stays at half that bound.
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
	// Final states live in the per-worker slabs, row li holding the vertex
	// with local index li.
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
