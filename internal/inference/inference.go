// Package inference is InferTurbo's core: full-graph, sampling-free GNN
// inference over the Pregel engine (internal/pregel), implementing the
// paper's three skew strategies — partial-gather, broadcast, and
// shadow-nodes — plus the threshold heuristic that activates the out-degree
// strategies, and the incremental Session that keeps a pass's state resident
// across graph mutations.
//
// The drivers execute the same gas.Model a k-hop trainer produced, one GNN
// layer per superstep. Every node is computed exactly once per layer,
// eliminating the k-hop redundant computation of traditional pipelines, and
// no sampling happens anywhere, so predictions are identical across runs —
// the consistency guarantee the tests enforce against the single-process
// reference forward. RunMapReduce runs the same model on the batch engine
// (internal/mapreduce) in one fixed configuration, for the paper's
// batch-backend experiments.
package inference

import (
	"fmt"
	"sync"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/cluster"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// Options configures a full-graph inference run.
type Options struct {
	// NumWorkers is the partition count (Pregel workers).
	NumWorkers int
	// Partitioner selects the vertex-placement strategy (nil = the mod-N
	// hash). Strategies run once up front over the graph the engine
	// executes — the shadow rewrite when ShadowNodes is set, so mirrors get
	// first-class placement. Placement changes traffic only: predictions
	// are bit-identical under every strategy (the engine's source-merged
	// delivery keeps per-destination message order placement-independent),
	// so locality-aware strategies like graph.LDG{} are pure wins on
	// cross-worker bytes. Composes with all three skew strategies, with one
	// scope note: under PartialGather the sender-side combiner folds
	// partial sums per sending worker, so cross-placement agreement is
	// tolerance-level there (like agreement with ReferenceForward), not
	// bitwise; every fixed configuration remains deterministic.
	Partitioner graph.Strategy
	// PartialGather enables sender-side aggregation for layers whose reduce
	// obeys the commutative/associative laws.
	PartialGather bool
	// Broadcast deduplicates identical out-edge messages of hub nodes: one
	// payload per worker plus lightweight per-edge references.
	Broadcast bool
	// ShadowNodes splits hub nodes' out-edges across mirror vertices in a
	// preprocessing pass. Logits match the plain run to float tolerance,
	// not bitwise (see ShadowGraph).
	ShadowNodes bool
	// Lambda tunes the hub threshold = λ·edges/workers (default 0.1).
	Lambda float64
	// HubThreshold overrides the heuristic threshold when > 0.
	HubThreshold int
	// Parallel runs workers on goroutines; results are identical either way.
	Parallel bool
	// CheckpointEvery snapshots Pregel engine state (including the driver's
	// per-worker state slabs) every n supersteps, enabling recovery
	// from a worker failure. 0 disables checkpointing.
	CheckpointEvery int
	// Faults schedules deterministic injected crashes — the chaos-test
	// surface. Each entry fires once at its superstep and lifecycle point;
	// the engine recovers from the latest checkpoint and results stay
	// bit-identical to a failure-free run.
	Faults *pregel.FaultPlan
	// CheckpointSync selects the durability level of SessionDir's bases and
	// links and of the serving layer's mutation WAL:
	// checkpoint.SyncAlways (default) fsyncs every write — survives power
	// loss; checkpoint.SyncNever skips fsync — files stay atomic and
	// survive process crashes (the guarantee the kill tests exercise), but
	// an OS crash may lose the newest ones.
	CheckpointSync checkpoint.SyncMode
	// SuperstepHook runs on the engine goroutine at the start of every
	// superstep — the deterministic kill point the serving layer's
	// process-kill tests use.
	SuperstepHook func(step int)
	// Cancel, when non-nil, is polled at the start of every superstep; a
	// non-nil return aborts the run with that error.
	// Superstep granularity means an abort never leaves partially delivered
	// state behind. The serving layer uses this to propagate request
	// deadlines from HTTP through micro-batching into the compute plane
	// (partial-batch cancellation).
	Cancel func() error
	// EmitEmbeddings additionally returns each node's penultimate-layer
	// state (the paper's final superstep "outputs node embeddings or
	// scores"). One-layer models emit the input features.
	EmitEmbeddings bool
	// Tuning configures the deterministic parallel tensor kernels for the
	// duration of the run (worker goroutines per kernel, MatMul cache block,
	// serial-fallback threshold). The zero value inherits the process-wide
	// tuning (tensor.SetTuning). Any setting produces bit-identical results;
	// this knob only trades wall-clock.
	Tuning tensor.Tuning
	// SessionDir makes the incremental Session durable: after every refresh
	// pass that ran compute, the state it produced is persisted to this
	// directory by a background persister, off the refresh critical path —
	// a full pass as a base epoch (graph, per-layer slabs, emitted
	// wire-message slabs), a delta pass as a link holding only the rows it
	// changed and the batches applied since the previous link. Files are
	// CRC-checksummed checkpoint epochs. ResumeSession reconstructs a
	// primed Session from the newest valid base and its chain after a
	// crash. Honors CheckpointSync. Ignored by one-shot RunPregel.
	SessionDir string
	// SessionPersistBeginHook, when non-nil, runs on the persister goroutine
	// immediately before each base or link write, receiving the replay mark
	// it will record; a non-nil error aborts that persist (counted as a
	// failure, resident state unaffected; the next write is a base).
	// Fault-injection seam for the mid-persist crash tests.
	SessionPersistBeginHook func(mark uint64) error
	// SessionPersistHook, when non-nil, runs on the persister goroutine after
	// each persist attempt with the count of bases and links written so far,
	// the replay mark it covers, and the write error (nil on success). The
	// serving layer truncates the mutation WAL here — strictly after the
	// state covering those mutations is durable.
	SessionPersistHook func(epoch int, mark uint64, err error)
	// DeltaCutover is the incremental Session's fallback fraction: when a
	// mutation's L-hop flood is estimated to touch more than this fraction of
	// the graph, Refresh runs a full pass (which is cheaper than a delta pass
	// degenerating to the whole graph) instead of the frontier-driven delta
	// pass. 0 selects the default (0.25). Both paths are bit-identical; this
	// knob only trades wall-clock.
	DeltaCutover float64

	// captureLayers, when non-nil, makes the Pregel drivers copy every
	// vertex's layer-k state into captureLayers[k] as superstep k computes it
	// (k = 1..NumLayers; entry 0 is the caller's alias of the feature
	// matrix). The incremental Session sets this so a full pass doubles as
	// resident-state population. Requires ShadowNodes off (mirror vertex ids
	// would not map onto the capture rows).
	captureLayers []*tensor.Matrix
	// captureMsgs, under the same rules, makes the drivers copy every
	// vertex's layer-k wire message into captureMsgs[k] as it scatters it,
	// for each k whose entry is non-nil (the Session sets the emitting
	// layers').
	captureMsgs []*tensor.Matrix
}

// Kernel-tuning override bookkeeping. The tensor tuning is process-global,
// so overlapping runs with different explicit Tuning values share it (the
// last writer wins mid-run — results are bit-identical either way, only
// wall-clock differs). The baseline/depth pair guarantees the one thing
// that must hold: once every tuned run has finished, the process-wide
// tuning is back to its pre-run value, never a leaked override.
var (
	tuneMu    sync.Mutex
	tuneDepth int
	tuneBase  tensor.Tuning
	tuneCur   tensor.Tuning // the override most recently installed by a run
)

// applyTuning installs the run's kernel tuning (when explicitly set) and
// returns the restore function for defer.
func applyTuning(o Options) func() {
	if o.Tuning == (tensor.Tuning{}) {
		return func() {}
	}
	tuneMu.Lock()
	if tuneDepth == 0 {
		tuneBase = tensor.CurrentTuning()
	}
	tuneDepth++
	tensor.SetTuning(o.Tuning)
	tuneCur = tensor.CurrentTuning()
	tuneMu.Unlock()
	return func() {
		tuneMu.Lock()
		tuneDepth--
		// Restore the pre-run tuning only if ours is still installed; if the
		// application called SetTuning mid-run, its choice wins — restoring
		// the stale baseline would silently revert it.
		if tuneDepth == 0 && tensor.CurrentTuning() == tuneCur {
			tensor.SetTuning(tuneBase)
		}
		tuneMu.Unlock()
	}
}

func (o Options) withDefaults() Options {
	if o.NumWorkers <= 0 {
		o.NumWorkers = 4
	}
	if o.Lambda == 0 {
		o.Lambda = 0.1
	}
	return o
}

// threshold resolves the hub threshold for g under the options.
func (o Options) threshold(g *graph.Graph) int {
	if o.HubThreshold > 0 {
		return o.HubThreshold
	}
	return graph.StrategyThreshold(o.Lambda, g.NumEdges, o.NumWorkers)
}

// partition places g's vertices per the selected strategy (hash when none
// was chosen). g must be the graph the engine will actually execute.
func (o Options) partition(g *graph.Graph) graph.Partitioner {
	s := o.Partitioner
	if s == nil {
		s = graph.Hash{}
	}
	return s.Partition(g, o.NumWorkers)
}

// aggregateInto is the aggregate half of gather for every pass — the full
// and induced Pregel passes, the Session's delta pass and the MapReduce
// reducer (one row) all reduce through it. Row r's messages are the payload
// views pays[off[r]:off[r+1]] in delivery order, counts their folded
// contribution counts; the nRows-row aggregate lands in a per layer's reduce
// annotation. Sum, mean and extreme reduces fold each row's views through
// the segment kernels in view order from a zero start (an empty row
// aggregates to zeros), so a row's bits do not depend on which rows share
// the call. Union keeps the views themselves, with destinations in row
// indices. a is caller-owned scratch, reused per worker; it must not be
// reused until apply_node has consumed it. Buffers come from pool; callers
// release them with releaseAggregated.
func aggregateInto(a *gas.Aggregated, layer gas.Conv, off []int32, pays [][]float32, counts []int32, nRows int, pool *tensor.Pool) *gas.Aggregated {
	n := len(pays)
	a.Kind = layer.Reduce()
	a.Pooled, a.Msgs, a.Self = nil, nil, nil
	a.Counts, a.Dst = a.Counts[:0], a.Dst[:0]
	switch kind := layer.Reduce(); kind {
	case gas.ReduceUnion:
		if cap(a.Dst) < n {
			a.Dst = make([]int32, n)
		} else {
			a.Dst = a.Dst[:n]
		}
		for r := 0; r < nRows; r++ {
			for i := off[r]; i < off[r+1]; i++ {
				a.Dst[i] = int32(r)
			}
		}
		a.Msgs = pays
	case gas.ReduceSum, gas.ReduceMean:
		pooled := pool.GetNoZero(nRows, layer.InDim())
		tensor.SegmentSumViewsInto(pooled, off, pays)
		if cap(a.Counts) < nRows {
			a.Counts = make([]int32, nRows)
		} else {
			a.Counts = a.Counts[:nRows]
		}
		for r := 0; r < nRows; r++ {
			var c int32
			for i := off[r]; i < off[r+1]; i++ {
				c += counts[i]
			}
			a.Counts[r] = c
			if kind == gas.ReduceMean && c > 0 {
				// Same op order as the reference fold: multiply by the
				// reciprocal, never divide.
				inv := 1 / float32(c)
				row := pooled.Row(r)
				for j := range row {
					row[j] *= inv
				}
			}
		}
		a.Pooled = pooled
	case gas.ReduceMax, gas.ReduceMin:
		pooled := pool.GetNoZero(nRows, layer.InDim())
		tensor.SegmentExtremeViewsInto(pooled, off, pays, kind == gas.ReduceMax)
		a.Pooled = pooled
	}
	return a
}

// bcIndex is a dense broadcast-payload lookup replacing a per-superstep
// map[int32][]float32 table: payload views append to pays in mailbox order
// and slot[src] records their position, valid iff stamp[src] == cur. cur increments each rebuild, so no clearing pass — and
// no allocation or hashing — happens on the gather hot path. The slot/stamp
// arrays are 8 bytes x NumVertices per worker, the same deliberate
// footprint-for-branch-free-O(1) trade the engine's combiner index makes;
// they are allocated lazily on the first broadcast payload, so runs without
// the broadcast strategy never pay for them. Callers must reset() before
// each fill generation: generation 0 is reserved as "never filled", so gets
// on a freshly zero-valued index always miss.
type bcIndex struct {
	slot  []int32
	stamp []uint32
	cur   uint32
	pays  [][]float32
}

// reset invalidates every entry (O(1)) and truncates the payload list.
func (x *bcIndex) reset() {
	x.cur++
	x.pays = x.pays[:0]
}

// put registers src's payload view for the current generation. n is the
// vertex-id space bound, used to size the index on first use.
func (x *bcIndex) put(n int, src int32, pay []float32) {
	if len(x.slot) < n {
		x.slot = make([]int32, n)
		x.stamp = make([]uint32, n)
	}
	x.slot[src] = int32(len(x.pays))
	x.stamp[src] = x.cur
	x.pays = append(x.pays, pay)
}

// get returns src's payload view, if one was put this generation.
func (x *bcIndex) get(src int32) ([]float32, bool) {
	if int(src) >= len(x.stamp) || x.stamp[src] != x.cur {
		return nil, false
	}
	return x.pays[x.slot[src]], true
}

// releaseAggregated returns an aggregate's pooled buffer once apply_node
// has consumed it.
func releaseAggregated(pool *tensor.Pool, a *gas.Aggregated) {
	if a.Pooled != nil {
		pool.Put(a.Pooled)
	}
}

// emitterOf returns layer's emit hook, nil when its wire message is the
// sender's raw state.
func emitterOf(layer gas.Conv) gas.Emitter {
	em, _ := layer.(gas.Emitter)
	return em
}

// keepsEmit reports whether layer's apply reads its receivers' own emitted
// rows, so an owner keeps them from scatter to its next apply.
func keepsEmit(layer gas.Conv) bool {
	em := emitterOf(layer)
	return em != nil && em.SelfEmitted()
}

// degreeScaled reports whether layer's wire message depends on the sender's
// out-degree: an emitter that does not read its rows back (see
// gas.Emitter.SelfEmitted).
func degreeScaled(layer gas.Conv) bool {
	em := emitterOf(layer)
	return em != nil && !em.SelfEmitted()
}

// rowMat points the reusable header m at row as a 1 x len(row) matrix. The
// view lives until the header's next use; no callee on the emit, apply_edge
// or apply_node path retains its matrix arguments.
func rowMat(m *tensor.Matrix, row []float32) *tensor.Matrix {
	*m = tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
	return m
}

// emitRows writes em's wire messages of vertices vs — states the rows of h,
// out-degrees read from g — into their rows of the message slab msgs, in one
// Emit call. Emit is row-independent, so each row gets the bits a one-row
// call would write.
func emitRows(em gas.Emitter, g *graph.Graph, msgs, h *tensor.Matrix, vs []int32, p *tensor.Pool) {
	degs := make([]int32, len(vs))
	for i, v := range vs {
		degs[i] = int32(g.OutDegree(v))
	}
	e := p.GetNoZero(len(vs), em.MsgDim())
	em.Emit(e, h, degs, p)
	for i, v := range vs {
		copy(msgs.Row(int(v)), e.Row(i))
	}
	p.Put(e)
}

// pooledRows copies m's rows idx, in order, into a matrix drawn from p.
func pooledRows(p *tensor.Pool, m *tensor.Matrix, idx []int32) *tensor.Matrix {
	return tensor.GatherRowsInto(p.GetNoZero(len(idx), m.Cols), m, idx)
}

// Stats aggregates run-wide counters for the experiment harness.
type Stats struct {
	Supersteps    int
	MessagesSent  int64
	BytesSent     int64
	BytesReceived int64
	// RemoteMessages / RemoteBytes count only cross-worker traffic — the
	// share vertex placement controls; the Sent totals include worker-local
	// delivery. The MapReduce driver leaves them zero (its shuffle does
	// not attribute producers to reducers).
	RemoteMessages int64
	RemoteBytes    int64
	CombinedAway   int64 // messages eliminated by partial-gather
	BroadcastHubs  int64 // node-steps that used the broadcast path
	ShadowMirrors  int64 // extra vertices created by shadow-nodes
	// Fault-tolerance counters.
	Recoveries       int   // injected crashes recovered in-run
	Checkpoints      int   // in-memory snapshots committed
	CheckpointWallNs int64 // snapshot capture time on the superstep critical path
	// StepActive is the frontier size per superstep: how many vertices each
	// superstep actually computed. A full pass reports the node count at
	// every step; a delta pass reports the L-hop flood of the change set
	// collapsing as it converges — the observable the incremental mode is
	// judged by.
	StepActive      []int64
	WorkerBytesIn   []int64
	WorkerBytesOut  []int64
	WorkerFlops     []int64
	WorkerInRecords []int64 // records received per worker (Fig 11/12 x-axis)
}

// Result of a full-graph inference run.
type Result struct {
	// Logits is NumNodes x NumClasses, aligned with the input graph's node
	// ids (shadow mirrors are folded away).
	Logits *tensor.Matrix
	// Classes holds argmax predictions for single-label tasks.
	Classes []int32
	// MultiLabel holds thresholded {0,1} predictions for multi-label tasks.
	MultiLabel *tensor.Matrix
	// Embeddings holds penultimate-layer node states when
	// Options.EmitEmbeddings was set; nil otherwise.
	Embeddings *tensor.Matrix
	// Phases carries per-superstep/round per-worker loads for the cluster
	// cost model.
	Phases []cluster.Phase
	Stats  Stats
}

// finalize fills the prediction fields of a result from its logits.
func (r *Result) finalize(m *gas.Model) {
	r.Classes, r.MultiLabel = m.Predict(r.Logits)
}

// ReferenceForward computes the exact full-graph logits in a single process
// by materializing the whole graph as one gas.Context — the oracle every
// driver is tested against.
func ReferenceForward(m *gas.Model, g *graph.Graph) *tensor.Matrix {
	src, dst := g.EdgeList()
	ctx := &gas.Context{
		NodeState: g.Features,
		SrcIndex:  src,
		DstIndex:  dst,
		EdgeState: g.EdgeFeatures,
		NumNodes:  g.NumNodes,
	}
	return m.Infer(ctx)
}

// validateModelGraph rejects model/graph mismatches early.
func validateModelGraph(m *gas.Model, g *graph.Graph) error {
	if m.NumLayers() == 0 {
		return fmt.Errorf("inference: model has no layers")
	}
	if g.FeatureDim() != m.InDim() {
		return fmt.Errorf("inference: graph features dim %d, model expects %d", g.FeatureDim(), m.InDim())
	}
	for i, l := range m.Layers {
		if sc, ok := l.(*gas.SAGEConv); ok && sc.EdgeDim() > 0 && g.EdgeFeatureDim() != sc.EdgeDim() {
			return fmt.Errorf("inference: layer %d expects edge dim %d, graph has %d", i, sc.EdgeDim(), g.EdgeFeatureDim())
		}
	}
	return nil
}

// Flop cost helpers: coarse per-layer operation counts charged to workers so
// the cluster model can price compute. Constants are per the usual 2·n·m·k
// dense matmul convention.

// layerNodeFlops is the per-node cost of a layer: its emit and apply_node.
func layerNodeFlops(l gas.Conv) int64 {
	switch c := l.(type) {
	case *gas.SAGEConv:
		// self and neighbor linear transforms.
		return int64(4 * c.InDim() * c.OutDim())
	case *gas.GATConv:
		// the owner's one projection of its row, its source score (emit)
		// and its destination score (apply).
		return int64(2*c.InDim()*c.Heads()*c.HeadDim() + 4*c.Heads()*c.HeadDim())
	default:
		return int64(2 * l.InDim() * l.OutDim())
	}
}

// layerMsgFlops is the per-incoming-message cost of a layer.
func layerMsgFlops(l gas.Conv) int64 {
	switch c := l.(type) {
	case *gas.SAGEConv:
		// aggregation adds.
		return int64(c.InDim())
	case *gas.GATConv:
		// logit, softmax and weighted sum over the emitted row.
		return int64(6 * c.Heads() * c.HeadDim())
	default:
		return int64(l.InDim())
	}
}

// payloadBytes is the wire size of a state vector message.
func payloadBytes(dim int) int { return 4*dim + 16 }

// refBytes is the wire size of a broadcast reference message.
const refBytes = 12
