// Package pregel implements a Pregel-like bulk-synchronous graph processing
// engine: the "think-like-a-vertex" substrate InferTurbo's first backend
// runs on. Vertices are hash-partitioned across workers together with their
// out-edges; a computation proceeds in supersteps where every active vertex
// consumes the messages addressed to it, updates its value, and sends
// messages along out-edges for the next superstep.
//
// The engine reproduces the system behaviours the paper's evaluation
// depends on: sender-side combiners (the hook partial-gather uses), global
// aggregators (the hook broadcast uses), deterministic message delivery, and
// per-worker, per-superstep traffic/compute accounting that feeds the
// cluster cost model.
//
// Messages travel over one of two planes. The boxed plane carries M values
// (the classic Pregel API: SendMessage / Compute's msgs slice). The
// columnar plane (Config.Columnar, see columnar.go) carries fixed-header
// messages with payloads packed into recycled []float32 arenas — the
// allocation-free fast path the GNN driver uses. Both planes share the same
// barrier: a counting sort builds per-receiver CSR inboxes, with delivery
// parallelized across receiving workers. Each receiver owns a disjoint
// vertex range and merges its sender buffers by ascending source vertex id
// — well-defined because workers compute their owned vertices in id order,
// making every sender buffer source-sorted, and because a source is owned
// by exactly one worker. Per-destination message order is therefore a
// function of the topology and the program alone: identical at any worker
// count, under any vertex placement (Config.Partitioner), parallel or not —
// which is what makes results bit-identical across all of those axes.
//
// Vertex placement defaults to mod-N hashing and is pluggable through
// Config.Partitioner; the engine converts whatever placement it is given
// into dense workerOf/localIdx tables once, so the per-message hot paths
// never depend on the strategy.
//
// Compute likewise runs on one of two planes. The classic per-vertex plane
// invokes Compute once per active vertex. The batched plane (Config.Batched,
// columnar only) invokes ComputeBatch once per worker per superstep with the
// worker's whole owned range and its full CSR inbox, so partition-centric
// programs can replace millions of tiny per-vertex operations with a few
// dense kernel calls; see BatchProgram for the equivalence contract.
//
// Superstep execution is strict BSP: every worker computes, then one
// barrier accounts the traffic, delivers it and commits the superstep.
package pregel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/graph"
)

// Topology exposes the partition-resident structure a vertex program may
// consult: vertex count and per-vertex out-edges. *graph.Graph is adapted by
// GraphTopology; the shadow-nodes preprocessing produces its own Topology.
type Topology interface {
	NumVertices() int
	OutDegree(v int32) int
	// OutEdges returns destination vertex ids and edge ids for v. Callers
	// must not mutate the returned slices.
	OutEdges(v int32) (dsts, eids []int32)
}

// GraphTopology adapts *graph.Graph to Topology.
type GraphTopology struct{ G *graph.Graph }

// NumVertices implements Topology.
func (t GraphTopology) NumVertices() int { return t.G.NumNodes }

// OutDegree implements Topology.
func (t GraphTopology) OutDegree(v int32) int { return t.G.OutDegree(v) }

// OutEdges implements Topology.
func (t GraphTopology) OutEdges(v int32) (dsts, eids []int32) {
	return t.G.OutNeighbors(v), t.G.OutEdgeIDs(v)
}

// VertexProgram is the user computation. Compute runs once per active vertex
// per superstep; at superstep 0 msgs is empty (the initialization step).
// msgs (and the *Context) are only valid for the duration of the call: the
// engine recycles message storage across supersteps, so programs that need a
// message beyond their Compute invocation must copy it.
type VertexProgram[V, M any] interface {
	Compute(ctx *Context[V, M], msgs []M)
}

// BatchProgram is the partition-centric compute plane: instead of one
// Compute call per vertex, the engine invokes ComputeBatch once per worker
// per superstep with the worker's whole owned-vertex range and its full CSR
// columnar inbox. Programs that batch their per-vertex work into dense
// kernel calls (the GNN driver's one MatMul per layer per partition) avoid
// the per-vertex dispatch and allocation the classic API forces. Requires
// the columnar message plane (Config.Columnar) and Config.Batched.
//
// Engine semantics are unchanged: the engine still does the activity
// accounting per vertex (a vertex is computed this superstep iff it is
// active or has inbox messages), computed vertices stay active afterwards
// unless halted through the BatchContext, and message delivery order is the
// same CSR order the per-vertex plane observes — so a batch program that
// folds each vertex's inbox range in order reproduces the per-vertex plane
// bit for bit.
type BatchProgram[V, M any] interface {
	ComputeBatch(ctx *BatchContext[V, M])
}

// ProgramStater is implemented by programs that keep superstep-to-superstep
// state outside the engine's vertex values — batch programs typically own
// per-worker state slabs. When checkpointing is enabled the engine snapshots
// that state alongside its own: SnapshotProgState must return a deep copy of
// everything the next superstep reads (it is never written after capture),
// and RestoreProgState must reinstall such a snapshot, after which the
// program re-executes from the checkpointed superstep.
type ProgramStater interface {
	SnapshotProgState() any
	RestoreProgState(snap any)
}

// Config tunes an engine run.
type Config[M any] struct {
	NumWorkers    int
	MaxSupersteps int
	// Partitioner places vertices on workers. nil selects the mod-N hash
	// over NumWorkers; a non-nil value must report the same worker count.
	// The barrier's source-merged delivery keeps every destination's inbox
	// order placement-independent, so for combiner-free programs placement
	// changes traffic only, never results; with a combiner configured,
	// merges group by sending worker, so placement additionally regroups
	// the combiner's folds (each configuration stays deterministic).
	Partitioner graph.Partitioner
	// Combiner, when non-nil, merges messages addressed to the same
	// destination vertex on the sender side before transmission — Pregel's
	// combining, the mechanism behind the paper's partial-gather. Returning
	// false declines the merge (e.g. union-aggregated GAT messages), leaving
	// both messages to be delivered individually. Ignored in columnar mode
	// (use Columnar.Combine).
	Combiner func(a, b M) (M, bool)
	// MessageBytes estimates the wire size of a message for the IO
	// accounting. Defaults to a constant 64 bytes when nil. Ignored in
	// columnar mode (use Columnar.Bytes).
	MessageBytes func(M) int
	// Columnar, when non-nil, switches the engine onto the columnar message
	// plane: programs send payload rows instead of boxed M values and read
	// them back as zero-copy Batch views. See ColumnarOps.
	Columnar *ColumnarOps
	// Batched invokes the program's ComputeBatch once per worker per
	// superstep instead of Compute once per vertex. Requires the columnar
	// plane and a program implementing BatchProgram.
	Batched bool
	// Parallel executes workers on goroutines — both the compute phase and
	// the barrier's delivery (receivers own disjoint inboxes). Delivery
	// order stays deterministic either way.
	Parallel bool
	// CheckpointEvery snapshots engine state every n supersteps (0 = off),
	// enabling recovery after a worker failure. Vertex programs must
	// replace, not mutate, their value contents for snapshots to be sound
	// (both bundled algorithms and the GNN driver do). In-flight message
	// payloads need no such discipline: snapshots deep-copy the live arenas.
	CheckpointEvery int
	// Faults schedules deterministic crash injections: multiple crashes per
	// run, at any superstep lifecycle point (before compute, after compute
	// but before the barrier, at the barrier, during checkpoint capture).
	// Each injected crash loses that superstep's work; the engine restores
	// the latest checkpoint and re-executes. See FaultPlan. nil injects
	// nothing.
	Faults *FaultPlan
	// SuperstepHook, when non-nil, runs on the engine goroutine at the start
	// of every superstep, after all previously enqueued durable checkpoints
	// have been flushed to the sink. The flush makes hook-driven process
	// kills (cmd/infer -die-at) deterministic about which epochs survive.
	SuperstepHook func(step int)
	// Cancel, when non-nil, is polled on the engine goroutine at the start
	// of every superstep; a non-nil return aborts the run with that error
	// before any further compute. Superstep granularity is the engine's
	// cancellation unit: an in-flight superstep always completes, so an
	// aborted run leaves no partially delivered state behind. The serving
	// layer uses this to propagate request deadlines into the compute plane.
	Cancel func() error
	// Frontier, when non-nil, selects the initially active vertex set
	// instead of the default "every vertex active": only the listed vertices
	// compute at superstep 0. Activation then spreads through messaging as
	// always — delivery marks receivers active for the next superstep — so a
	// frontier-seeded run floods outward from its seeds while untouched
	// vertices never compute. An empty (non-nil) frontier terminates at
	// superstep 0. The incremental GNN drivers seed this with the dirty set
	// of a graph delta. Out-of-range ids panic at construction.
	Frontier []int32
}

// StepMetrics records one worker's activity during one superstep.
type StepMetrics struct {
	Superstep        int
	Worker           int
	ActiveVertices   int
	MessagesSent     int64
	MessagesReceived int64
	BytesSent        int64
	BytesReceived    int64
	// RemoteMessagesSent / RemoteBytesSent count only the traffic addressed
	// to other workers — the part a placement strategy can eliminate; the
	// Sent totals include worker-local delivery.
	RemoteMessagesSent int64
	RemoteBytesSent    int64
	CombinedAway       int64 // messages eliminated by the combiner
	ComputeCost        int64 // user-charged units via Context.AddCost
	// CheckpointNs is the wall time of the in-memory snapshot taken after
	// this superstep, charged to worker 0's row (capture blocks the whole
	// engine; durable persistence overlaps compute and is reported in
	// CheckpointStats instead). Zero on non-checkpoint supersteps.
	CheckpointNs int64
}

// Context is handed to Compute; it exposes the vertex, its mutable value,
// messaging, aggregators and cost accounting. The engine reuses one Context
// per worker across vertices, so programs must not retain it past Compute.
type Context[V, M any] struct {
	worker    *worker[V, M]
	ID        int32
	Superstep int
	Value     *V

	inLo, inHi int32 // columnar inbox bounds for this vertex
	halted     bool
}

// NumWorkers returns the configured worker count.
func (c *Context[V, M]) NumWorkers() int { return c.worker.engine.cfg.NumWorkers }

// WorkerID returns the worker executing this vertex.
func (c *Context[V, M]) WorkerID() int { return c.worker.id }

// OutEdges returns the vertex's out-edges from the topology.
func (c *Context[V, M]) OutEdges() (dsts, eids []int32) {
	return c.worker.engine.topo.OutEdges(c.ID)
}

// OutDegree returns the vertex's out-degree.
func (c *Context[V, M]) OutDegree() int { return c.worker.engine.topo.OutDegree(c.ID) }

// SendMessage routes m to vertex dst for the next superstep, applying the
// sender-side combiner when configured. Boxed plane only.
func (c *Context[V, M]) SendMessage(dst int32, m M) {
	c.worker.send(c.ID, dst, m)
}

// SendToWorker routes m to a synthetic per-worker mailbox (vertex -1-w on
// worker w); used by strategies that address workers rather than vertices.
// Boxed plane only.
func (c *Context[V, M]) SendToWorker(w int, m M) {
	c.worker.sendToWorker(w, m)
}

// SendColumnar routes a columnar message to vertex dst for the next
// superstep: kind is an opaque tag (also the combiner's merge gate), src and
// count ride in header columns, and payload is copied into the send arena —
// the caller's slice is not retained and may be reused immediately.
// Columnar plane only.
//
// src is also the barrier's delivery-order key: pass the computing vertex's
// id (ctx.ID), as every bundled program does. The engine then delivers each
// destination's messages in globally ascending src order — independent of
// vertex placement and worker count. A program that sends under arbitrary
// src values still gets deterministic delivery, but the order degrades to a
// placement-dependent one (sender-worker-id major).
func (c *Context[V, M]) SendColumnar(dst int32, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnar(dst, kind, src, count, payload)
}

// SendColumnarFan routes one identical payload to every destination in
// dsts, in order, copying it into each destination-worker arena at most
// once — results are identical to len(dsts) SendColumnar calls; only the
// arena bytes moved differ. The natural send for broadcast-safe scatters.
// Columnar plane only. src carries the same delivery-order contract as
// SendColumnar: pass the computing vertex's id.
func (c *Context[V, M]) SendColumnarFan(dsts []int32, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnarFan(dsts, kind, src, count, payload)
}

// SendColumnarToWorker routes a columnar message to worker w's mailbox
// (read back via ColumnarWorkerMail). Columnar plane only.
func (c *Context[V, M]) SendColumnarToWorker(w int, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnarToWorker(w, kind, src, count, payload)
}

// ColumnarInbox returns the columnar messages addressed to this vertex for
// the current superstep. The view (including payloads) is only valid during
// Compute. Columnar plane only.
func (c *Context[V, M]) ColumnarInbox() Batch {
	e := c.worker.engine
	if !e.columnar {
		panic("pregel: ColumnarInbox on the boxed plane")
	}
	return e.colIn[c.worker.id].cols.batch(c.inLo, c.inHi)
}

// ColumnarWorkerMail returns the columnar messages addressed to this worker
// (via SendColumnarToWorker) during the previous superstep. The view is
// shared by every vertex the worker computes this superstep; callers must
// not mutate it. Columnar plane only.
func (c *Context[V, M]) ColumnarWorkerMail() Batch {
	e := c.worker.engine
	if !e.columnar {
		panic("pregel: ColumnarWorkerMail on the boxed plane")
	}
	m := &e.colMail[c.worker.id]
	return m.batch(0, int32(len(m.kinds)))
}

// ExecSeq returns the count of supersteps the engine has executed so far,
// including checkpoint-recovery replays. Unlike Superstep it never repeats,
// so it is the correct key for any per-superstep cache of zero-copy views:
// a replayed superstep carries the same Superstep number as its original
// execution but rebuilt inboxes and mailboxes.
func (c *Context[V, M]) ExecSeq() int { return c.worker.engine.executed }

// VoteToHalt deactivates the vertex until a message arrives for it.
func (c *Context[V, M]) VoteToHalt() { c.halted = true }

// WorkerMail returns the messages addressed to this worker (via
// SendToWorker) during the previous superstep. The slice is shared by every
// vertex the worker computes this superstep; callers must not mutate it.
// Boxed plane only.
func (c *Context[V, M]) WorkerMail() []M { return c.worker.engine.boxMail[c.worker.id] }

// AddCost charges user-defined compute units (e.g. flops) to this worker's
// current superstep, feeding the cluster cost model.
func (c *Context[V, M]) AddCost(units int64) { c.worker.stepCost += units }

// AggregatorPut publishes a key/value into the global aggregator visible to
// every worker in the NEXT superstep. Keys must be unique per superstep.
func (c *Context[V, M]) AggregatorPut(key string, value []float32) {
	c.worker.aggPut(key, value)
}

// AggregatorGet reads a value published during the PREVIOUS superstep.
func (c *Context[V, M]) AggregatorGet(key string) ([]float32, bool) {
	v, ok := c.worker.engine.aggPrev[key]
	return v, ok
}

// BatchContext is handed to ComputeBatch: one call sees the worker's whole
// partition for the superstep. Like Context it is only valid for the
// duration of the call, and every view it returns (owned ids, inbox
// columns, mailboxes) is engine-owned and must not be mutated or retained.
type BatchContext[V, M any] struct {
	worker    *worker[V, M]
	Superstep int
}

// NumWorkers returns the configured worker count.
func (c *BatchContext[V, M]) NumWorkers() int { return c.worker.engine.cfg.NumWorkers }

// WorkerID returns the worker executing this batch.
func (c *BatchContext[V, M]) WorkerID() int { return c.worker.id }

// Owned returns the worker's owned vertex ids in local-index order: vertex
// Owned()[li] has local index li, the row index of every per-partition
// structure (the inbox CSR, a program's state slabs).
func (c *BatchContext[V, M]) Owned() []int32 { return c.worker.verts }

// Computed reports whether local vertex li computes this superstep — it is
// active or has inbox messages — i.e. whether the per-vertex plane would
// have invoked Compute for it. Programs whose vertices never halt mid-run
// (the GNN driver) can ignore this and process the full range.
func (c *BatchContext[V, M]) Computed(li int) bool { return c.worker.computed[li] }

// Value returns vertex v's engine-resident value. Batch programs that keep
// their state in their own slabs (see ProgramStater) typically never touch
// it.
func (c *BatchContext[V, M]) Value(v int32) *V { return &c.worker.engine.values[v] }

// InboxCSR returns the worker's full columnar inbox for the superstep as a
// CSR view: local vertex li's messages are msgs[off[li]:off[li+1]], in the
// same per-destination delivery order the per-vertex plane observes. The
// view is only valid during ComputeBatch.
func (c *BatchContext[V, M]) InboxCSR() (off []int32, msgs Batch) {
	in := &c.worker.engine.colIn[c.worker.id]
	off = in.off
	return off, in.cols.batch(0, off[len(off)-1])
}

// ColumnarWorkerMail returns the columnar messages addressed to this worker
// during the previous superstep; see Context.ColumnarWorkerMail.
func (c *BatchContext[V, M]) ColumnarWorkerMail() Batch {
	m := &c.worker.engine.colMail[c.worker.id]
	return m.batch(0, int32(len(m.kinds)))
}

// OutEdges returns vertex v's out-edges from the topology.
func (c *BatchContext[V, M]) OutEdges(v int32) (dsts, eids []int32) {
	return c.worker.engine.topo.OutEdges(v)
}

// OutDegree returns vertex v's out-degree.
func (c *BatchContext[V, M]) OutDegree(v int32) int { return c.worker.engine.topo.OutDegree(v) }

// SendColumnar routes a columnar message to vertex dst for the next
// superstep; see Context.SendColumnar. Sends issued in owned-vertex order
// produce the same send buffers — and therefore the same delivery order and
// combiner merges — as the per-vertex plane.
func (c *BatchContext[V, M]) SendColumnar(dst int32, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnar(dst, kind, src, count, payload)
}

// SendColumnarFan routes one identical payload along every dst with at most
// one payload copy per destination-worker arena; see Context.SendColumnarFan.
func (c *BatchContext[V, M]) SendColumnarFan(dsts []int32, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnarFan(dsts, kind, src, count, payload)
}

// SendColumnarToWorker routes a columnar message to worker w's mailbox; see
// Context.SendColumnarToWorker.
func (c *BatchContext[V, M]) SendColumnarToWorker(w int, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnarToWorker(w, kind, src, count, payload)
}

// ExecSeq returns the engine's executed-superstep count; see
// Context.ExecSeq.
func (c *BatchContext[V, M]) ExecSeq() int { return c.worker.engine.executed }

// AddCost charges user-defined compute units to this worker's superstep.
func (c *BatchContext[V, M]) AddCost(units int64) { c.worker.stepCost += units }

// Halt deactivates local vertex li until a message arrives for it — the
// batched form of Context.VoteToHalt. Only computed vertices are affected.
func (c *BatchContext[V, M]) Halt(li int) { c.worker.halted[li] = true }

// HaltAll deactivates every computed vertex of the partition.
func (c *BatchContext[V, M]) HaltAll() {
	for i := range c.worker.halted {
		c.worker.halted[i] = true
	}
}

// AggregatorPut publishes a key/value into the global aggregator visible in
// the next superstep; see Context.AggregatorPut.
func (c *BatchContext[V, M]) AggregatorPut(key string, value []float32) {
	c.worker.aggPut(key, value)
}

// AggregatorGet reads a value published during the previous superstep.
func (c *BatchContext[V, M]) AggregatorGet(key string) ([]float32, bool) {
	v, ok := c.worker.engine.aggPrev[key]
	return v, ok
}

// pending is a boxed sender-side buffer of messages for one destination
// worker, recycled across supersteps by truncation. srcs[i] records the
// sending vertex of message i (the vertex that created the slot, for
// combined messages; -1 for worker mail) — the key the barrier merges
// sender buffers by.
type pending[M any] struct {
	dsts []int32
	srcs []int32
	msgs []M
}

// boxInbox is one receiver's CSR inbox on the boxed plane: vertex with local
// index li holds msgs[off[li] : off[li+1]].
type boxInbox[M any] struct {
	off  []int32 // len ownedCount+1
	next []int32 // scatter cursors, len ownedCount
	msgs []M
}

type worker[V, M any] struct {
	engine *Engine[V, M]
	id     int
	verts  []int32 // owned vertex ids

	out []pending[M] // boxed send buffers, one per destination worker

	// Dense sender-side combiner index replacing the per-superstep
	// map[int32]int: lastSeen[dst] is the buffer index of the first message
	// this worker sent to dst in the current superstep, valid iff
	// seenStamp[dst] == stamp. stamp increments each superstep, so no
	// clearing pass is needed. Allocated only when a combiner is configured.
	// Footprint is a deliberate trade: 8 bytes x NumVertices per worker
	// buys branch-free O(1) lookups on the per-message hot path; in the
	// distributed deployment this simulates, each worker is a separate
	// machine and the seed's maps cost more than the dense array there.
	lastSeen  []int32
	seenStamp []uint32
	stamp     uint32

	// Batched-plane scratch (len ownedCount, allocated only when
	// Config.Batched): computed[li] records whether local vertex li computes
	// this superstep; halted[li] collects BatchContext.Halt votes.
	computed []bool
	halted   []bool

	// Fan-out scratch (len NumWorkers, columnar only): fanOff[dw] is the
	// arena offset of the payload this fan already copied into destination
	// worker dw's buffer, or -1.
	fanOff []int64

	m        *StepMetrics // this worker's metrics entry for the current superstep
	stepCost int64
	aggLocal map[string][]float32
}

func (w *worker[V, M]) send(src, dst int32, m M) {
	e := w.engine
	if e.columnar {
		panic("pregel: SendMessage on the columnar plane")
	}
	dw := e.workerOf[dst]
	p := &w.out[dw]
	if e.cfg.Combiner != nil {
		if w.seenStamp[dst] == w.stamp {
			i := w.lastSeen[dst]
			if merged, ok := e.cfg.Combiner(p.msgs[i], m); ok {
				p.msgs[i] = merged
				w.m.CombinedAway++
				return
			}
		} else {
			w.seenStamp[dst] = w.stamp
			w.lastSeen[dst] = int32(len(p.dsts))
		}
	}
	p.dsts = append(p.dsts, dst)
	p.srcs = append(p.srcs, src)
	p.msgs = append(p.msgs, m)
}

func (w *worker[V, M]) sendToWorker(dw int, m M) {
	if w.engine.columnar {
		panic("pregel: SendToWorker on the columnar plane")
	}
	p := &w.out[dw]
	p.dsts = append(p.dsts, -1)
	p.srcs = append(p.srcs, -1)
	p.msgs = append(p.msgs, m)
}

func (w *worker[V, M]) sendColumnar(dst int32, kind uint8, src, count int32, pay []float32) {
	e := w.engine
	if !e.columnar {
		panic("pregel: SendColumnar on the boxed plane")
	}
	dw := e.workerOf[dst]
	b := e.colCur[w.id][dw]
	if e.colCombine != nil {
		if w.seenStamp[dst] == w.stamp {
			i := w.lastSeen[dst]
			if b.kinds[i] == kind && int(b.lens[i]) == len(pay) {
				acc := b.mergeTarget(i)
				if merged, ok := e.colCombine(kind, acc, pay, b.counts[i], count); ok {
					// The row keeps the src that created it: a merged row
					// has no single source semantically, but the creation
					// src is the key the barrier merges sender buffers by.
					b.counts[i] = merged
					w.m.CombinedAway++
					return
				}
			}
		} else {
			w.seenStamp[dst] = w.stamp
			w.lastSeen[dst] = int32(len(b.dsts))
		}
	}
	b.add(dst, kind, src, count, pay)
}

// sendColumnarFan routes one identical payload to every destination in
// dsts, in order — the columnar form of a broadcast-safe scatter. The
// payload is copied into each destination-worker arena at most once; every
// further send to the same worker appends only a header row aliasing that
// extent, so a hub's out-edges cost one payload copy per worker instead of
// one per edge. Fan extents are marked shared, which makes any combine into
// them copy-on-first-merge (see colBuf.mergeTarget) — delivered values, and
// therefore results, are identical to issuing len(dsts) individual
// sendColumnar calls; only the arena bytes differ.
func (w *worker[V, M]) sendColumnarFan(dsts []int32, kind uint8, src, count int32, pay []float32) {
	e := w.engine
	if !e.columnar {
		panic("pregel: SendColumnarFan on the boxed plane")
	}
	fan := w.fanOff[:e.cfg.NumWorkers]
	for i := range fan {
		fan[i] = -1
	}
	for _, dst := range dsts {
		dw := e.workerOf[dst]
		b := e.colCur[w.id][dw]
		if e.colCombine != nil {
			if w.seenStamp[dst] == w.stamp {
				i := w.lastSeen[dst]
				if b.kinds[i] == kind && int(b.lens[i]) == len(pay) {
					acc := b.mergeTarget(i)
					if merged, ok := e.colCombine(kind, acc, pay, b.counts[i], count); ok {
						b.counts[i] = merged
						w.m.CombinedAway++
						continue
					}
				}
			} else {
				w.seenStamp[dst] = w.stamp
				w.lastSeen[dst] = int32(len(b.dsts))
			}
		}
		if off := fan[dw]; off >= 0 {
			b.addAlias(dst, kind, src, count, int(off), int32(len(pay)))
			continue
		}
		fan[dw] = int64(len(b.arena))
		b.add(dst, kind, src, count, pay)
		// The freshly appended extent is this fan's shared source: combines
		// must not fold into it in place, or later aliases would read the
		// merged value instead of the pristine payload.
		b.shared[len(b.shared)-1] = true
	}
}

func (w *worker[V, M]) sendColumnarToWorker(dw int, kind uint8, src, count int32, pay []float32) {
	e := w.engine
	if !e.columnar {
		panic("pregel: SendColumnarToWorker on the boxed plane")
	}
	e.colCur[w.id][dw].add(-1, kind, src, count, pay)
}

func (w *worker[V, M]) aggPut(key string, value []float32) {
	if w.aggLocal == nil {
		w.aggLocal = map[string][]float32{}
	}
	w.aggLocal[key] = value
}

// Engine executes a vertex program over a topology.
type Engine[V, M any] struct {
	topo  Topology
	prog  VertexProgram[V, M]
	batch BatchProgram[V, M] // non-nil iff cfg.Batched
	cfg   Config[M]
	part  graph.Partitioner

	values  []V
	active  []bool
	workers []*worker[V, M]

	// localIdx[v] caches part.LocalIndex(v) (the dense per-receiver inbox
	// slot) and workerOf[v] caches part.WorkerFor(v): whatever the
	// partitioner's internal representation, the barrier's counting sort
	// and the send hot path only ever do table reads.
	localIdx []int32
	workerOf []int32

	// mergeCur[r] / mergeHeads[r] are receiver r's per-sender cursor and
	// head-source scratch for the barrier's source-order merge; persistent
	// so parallel delivery stays allocation-free.
	mergeCur   [][]int
	mergeHeads [][]int32

	columnar   bool
	colCombine func(kind uint8, acc, pay []float32, accCount, payCount int32) (int32, bool)
	colBytes   func(kind uint8, payloadLen int) int

	// Boxed plane: per-receiver CSR inboxes and worker mailboxes.
	boxIn   []boxInbox[M]
	boxMail [][]M

	// Columnar plane: per-receiver inboxes/mailboxes plus the send-buffer
	// generations. colCur[s][r] is filled by sender s during the current
	// superstep; colLive holds the previous generation, whose arenas back
	// the current inbox views, and recycles into colFree at the barrier.
	colIn   []colInbox
	colMail []colCols
	colCur  [][]*colBuf
	colLive [][]*colBuf
	colFree bufPool

	inTotal   int // vertex-addressed messages awaiting the next superstep
	mailTotal int // worker-addressed messages awaiting the next superstep

	aggPrev map[string][]float32

	metrics [][]StepMetrics // one entry per executed superstep (replays add entries)
	// metricsSlab backs the per-superstep metrics windows: supersteps carve
	// NumWorkers-wide windows out of one block allocation instead of
	// allocating a fresh slice each superstep. Earlier windows keep aliasing
	// retired blocks after growth, which is sound because a window is only
	// written during its own superstep.
	metricsSlab []StepMetrics
	supersteps  int
	executed    int // total supersteps executed, never rolled back by recovery

	checkpoint *snapshot[V, M]
	spare      *snapshot[V, M] // displaced checkpoint, recycled by the next capture
	recoveries int
	faults     []faultState

	// Durable checkpointing (see durable.go): sink/codec attached via
	// SetSink, snapshots encoded and written by one persister goroutine.
	sink           checkpoint.Sink
	codec          SnapshotCodec[V, M]
	encArena       segArena             // persister-goroutine-only encode scratch
	encSegs        []checkpoint.Segment // persister-goroutine-only segment views
	boxScratch     []byte               // persister-goroutine-only boxed-plane scratch
	persistCh      chan *snapshot[V, M]
	persistDone    chan struct{}
	persistWG      sync.WaitGroup
	persistMu      sync.Mutex
	persistFailure error
	startStep      int
	resumed        bool

	ckptCount  int
	ckptWallNs int64
	ckptBytes  int64 // atomic; written by the persister
	persistNs  int64 // atomic; written by the persister
}

// snapshot is a recovery point: everything the next superstep reads. All
// fields are deep copies (payloads included — see columnar.go) and are
// never written after capture.
type snapshot[V, M any] struct {
	step    int
	values  []V
	active  []bool
	aggPrev map[string][]float32

	// ioDone (atomic) is 1 once the persister has finished with this
	// snapshot (or it was never enqueued); takeCheckpoint only recycles a
	// displaced snapshot's slabs after observing it.
	ioDone uint32

	inTotal   int
	mailTotal int

	// boxed plane
	boxOff  [][]int32
	boxMsgs [][]M
	boxMail [][]M

	// columnar plane
	colIn   []colSnap
	colMail []colSnap

	// program-owned state (ProgramStater), e.g. a batch program's slabs
	progState any
	hasProg   bool
}

// NewEngine constructs an engine; Run executes it.
func NewEngine[V, M any](topo Topology, prog VertexProgram[V, M], cfg Config[M]) *Engine[V, M] {
	if cfg.NumWorkers <= 0 {
		panic(fmt.Sprintf("pregel: invalid worker count %d", cfg.NumWorkers))
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 64
	}
	if cfg.MessageBytes == nil {
		cfg.MessageBytes = func(M) int { return 64 }
	}
	part := cfg.Partitioner
	if part == nil {
		part = graph.NewPartitioner(cfg.NumWorkers)
	} else if part.NumWorkers() != cfg.NumWorkers {
		panic(fmt.Sprintf("pregel: partitioner has %d workers, config %d", part.NumWorkers(), cfg.NumWorkers))
	}
	e := &Engine[V, M]{
		topo:     topo,
		prog:     prog,
		cfg:      cfg,
		part:     part,
		columnar: cfg.Columnar != nil,
	}
	if cfg.Batched {
		if !e.columnar {
			panic("pregel: Config.Batched requires the columnar message plane")
		}
		bp, ok := prog.(BatchProgram[V, M])
		if !ok {
			panic("pregel: Config.Batched requires a program implementing BatchProgram")
		}
		e.batch = bp
	}
	e.faults = buildFaults(cfg.Faults)
	n := topo.NumVertices()
	e.values = make([]V, n)
	e.active = make([]bool, n)
	if cfg.Frontier != nil {
		for _, v := range cfg.Frontier {
			if int(v) < 0 || int(v) >= n {
				panic(fmt.Sprintf("pregel: frontier vertex %d out of range [0,%d)", v, n))
			}
			e.active[v] = true
		}
	} else {
		for i := range e.active {
			e.active[i] = true
		}
	}
	e.localIdx = make([]int32, n)
	e.workerOf = make([]int32, n)
	for v := range e.localIdx {
		e.localIdx[v] = int32(e.part.LocalIndex(int32(v)))
		e.workerOf[v] = int32(e.part.WorkerFor(int32(v)))
	}
	nw := cfg.NumWorkers
	combining := false
	if e.columnar {
		e.colCombine = cfg.Columnar.Combine
		e.colBytes = cfg.Columnar.Bytes
		if e.colBytes == nil {
			e.colBytes = func(_ uint8, payloadLen int) int { return 4*payloadLen + 16 }
		}
		combining = e.colCombine != nil
		e.colIn = make([]colInbox, nw)
		e.colMail = make([]colCols, nw)
		e.colCur = make([][]*colBuf, nw)
		e.colLive = make([][]*colBuf, nw)
		for s := 0; s < nw; s++ {
			e.colCur[s] = make([]*colBuf, nw)
			e.colLive[s] = make([]*colBuf, nw)
		}
	} else {
		combining = cfg.Combiner != nil
		e.boxIn = make([]boxInbox[M], nw)
		e.boxMail = make([][]M, nw)
	}
	e.mergeCur = make([][]int, nw)
	e.mergeHeads = make([][]int32, nw)
	for w := 0; w < nw; w++ {
		e.mergeCur[w] = make([]int, nw)
		e.mergeHeads[w] = make([]int32, nw)
		wk := &worker[V, M]{engine: e, id: w, verts: e.part.NodesFor(w, n)}
		if !e.columnar {
			wk.out = make([]pending[M], nw)
		} else {
			wk.fanOff = make([]int64, nw)
		}
		if combining {
			wk.lastSeen = make([]int32, n)
			wk.seenStamp = make([]uint32, n)
		}
		owned := len(wk.verts)
		if cfg.Batched {
			wk.computed = make([]bool, owned)
			wk.halted = make([]bool, owned)
		}
		if e.columnar {
			e.colIn[w].off = make([]int32, owned+1)
			e.colIn[w].next = make([]int32, owned)
		} else {
			e.boxIn[w].off = make([]int32, owned+1)
			e.boxIn[w].next = make([]int32, owned)
		}
		e.workers = append(e.workers, wk)
	}
	return e
}

// Run executes supersteps until every vertex has halted with no messages in
// flight, or MaxSupersteps is reached. When checkpointing is on and a
// failure is injected, the engine rolls back to the latest checkpoint and
// re-executes — results are identical to a failure-free run because every
// superstep is deterministic. With a durable sink attached (SetSink),
// checkpoints are additionally persisted by a background goroutine whose
// first failure surfaces from Run after the computation finishes.
func (e *Engine[V, M]) Run() error {
	if e.sink != nil {
		e.startPersister()
	}
	err := e.runLoop()
	if e.sink != nil {
		e.persistWG.Wait()
		if perr := e.stopPersister(); err == nil {
			err = perr
		}
	}
	return err
}

func (e *Engine[V, M]) runLoop() error {
	if e.cfg.CheckpointEvery > 0 && !e.resumed && len(e.faults) > 0 {
		// The superstep-0 seed is the rollback target for faults injected
		// before the first periodic checkpoint — the only way an in-process
		// rollback can be needed that early. Real crashes kill the process
		// and resume from disk, where a superstep-0 epoch equals a cold
		// start, so fault-free runs skip the capture entirely.
		e.takeCheckpoint(0)
	}
	for step := e.startStep; step < e.cfg.MaxSupersteps; step++ {
		// Delivery reactivates destinations, so in-flight vertex messages
		// imply an active vertex; the explicit totals guard worker mail and
		// keep the invariant local.
		anyActive := e.inTotal > 0 || e.mailTotal > 0
		if !anyActive {
			for _, a := range e.active {
				if a {
					anyActive = true
					break
				}
			}
		}
		if !anyActive {
			return nil
		}

		if e.cfg.SuperstepHook != nil {
			e.drainPersist()
			e.cfg.SuperstepHook(step)
		}

		if e.cfg.Cancel != nil {
			if err := e.cfg.Cancel(); err != nil {
				return fmt.Errorf("pregel: run canceled before superstep %d: %w", step, err)
			}
		}

		if e.faultAt(step, FaultBeforeSuperstep) {
			if err := e.recoverFromCrash(step); err != nil {
				return err
			}
			step = e.checkpoint.step - 1 // loop increment re-enters at the checkpoint
			continue
		}

		if crashed := e.runSuperstep(step); crashed {
			if err := e.recoverFromCrash(step); err != nil {
				return err
			}
			step = e.checkpoint.step - 1
			continue
		}
		if e.cfg.CheckpointEvery > 0 && (step+1)%e.cfg.CheckpointEvery == 0 {
			if e.faultAt(step, FaultDuringCheckpoint) {
				// Crash mid-capture: the partially built snapshot is lost
				// work (captured here, then discarded without committing);
				// the previous checkpoint stays the recovery point.
				_ = e.captureSnapshot(step + 1)
				if err := e.recoverFromCrash(step); err != nil {
					return err
				}
				step = e.checkpoint.step - 1
				continue
			}
			e.takeCheckpoint(step + 1)
		}
	}
	// Reaching the cap is normal for fixed-round programs (k-layer GNNs);
	// programs that expect convergence can inspect Supersteps().
	return nil
}

// recoverFromCrash rolls back to the latest checkpoint after an injected
// crash at superstep step.
func (e *Engine[V, M]) recoverFromCrash(step int) error {
	if e.checkpoint == nil {
		return fmt.Errorf("pregel: worker failure at superstep %d with no checkpoint", step)
	}
	e.restoreCheckpoint()
	e.recoveries++
	return nil
}

// takeCheckpoint snapshots everything the upcoming superstep consumes and
// commits the snapshot as the recovery point, handing it to the background
// persister when a durable sink is attached. Capture wall time is charged
// to worker 0's metrics row of the superstep just finished (the initial
// step-0 capture precedes all metrics and lands only in CheckpointStats).
func (e *Engine[V, M]) takeCheckpoint(step int) {
	t0 := time.Now()
	cp := e.grabSpare()
	e.captureSnapshotInto(cp, step)
	if prev := e.checkpoint; prev != nil {
		e.spare = prev
	}
	e.checkpoint = cp
	ns := time.Since(t0).Nanoseconds()
	e.ckptCount++
	e.ckptWallNs += ns
	if len(e.metrics) > 0 {
		e.metrics[len(e.metrics)-1][0].CheckpointNs += ns
	}
	// The superstep-0 seed never reaches the sink: resuming from it is
	// byte-identical to a cold start, so persisting it buys nothing.
	if e.sink != nil && step > 0 {
		e.enqueuePersist(cp)
	} else {
		atomic.StoreUint32(&cp.ioDone, 1)
	}
}

// grabSpare returns the previously displaced checkpoint for slab reuse once
// the persister is done with it, else a fresh snapshot. Recycling makes the
// steady-state capture cost a memcpy instead of an allocation storm.
func (e *Engine[V, M]) grabSpare() *snapshot[V, M] {
	if sp := e.spare; sp != nil && atomic.LoadUint32(&sp.ioDone) == 1 {
		e.spare = nil
		return sp
	}
	return &snapshot[V, M]{}
}

// captureSnapshot deep-copies into a fresh snapshot (discard-path helper;
// the checkpoint path goes through takeCheckpoint's recycling).
func (e *Engine[V, M]) captureSnapshot(step int) *snapshot[V, M] {
	cp := &snapshot[V, M]{}
	e.captureSnapshotInto(cp, step)
	return cp
}

// captureSnapshotInto deep-copies everything the upcoming superstep consumes
// into cp, reusing its slice capacity. Message payloads are deep-copied out
// of the live arenas: by the time a recovery replays, the arenas backing the
// current inbox views have been recycled and overwritten.
func (e *Engine[V, M]) captureSnapshotInto(cp *snapshot[V, M], step int) {
	cp.step = step
	cp.aggPrev = e.aggPrev
	cp.inTotal = e.inTotal
	cp.mailTotal = e.mailTotal
	cp.ioDone = 0
	cp.values = append(cp.values[:0], e.values...)
	cp.active = append(cp.active[:0], e.active...)
	nw := e.cfg.NumWorkers
	if e.columnar {
		if cp.colIn == nil {
			cp.colIn = make([]colSnap, nw)
			cp.colMail = make([]colSnap, nw)
		}
		for r := 0; r < nw; r++ {
			snapColsInto(&cp.colIn[r], e.colIn[r].off, &e.colIn[r].cols)
			snapColsInto(&cp.colMail[r], nil, &e.colMail[r])
		}
	} else {
		if cp.boxOff == nil {
			cp.boxOff = make([][]int32, nw)
			cp.boxMsgs = make([][]M, nw)
			cp.boxMail = make([][]M, nw)
		}
		for r := 0; r < nw; r++ {
			cp.boxOff[r] = append(cp.boxOff[r][:0], e.boxIn[r].off...)
			cp.boxMsgs[r] = append(cp.boxMsgs[r][:0], e.boxIn[r].msgs...)
			cp.boxMail[r] = append(cp.boxMail[r][:0], e.boxMail[r]...)
		}
	}
	if ps, ok := e.prog.(ProgramStater); ok {
		cp.progState = ps.SnapshotProgState()
		cp.hasProg = true
	}
}

// restoreCheckpoint rolls engine state back to the latest checkpoint,
// discarding the metrics of the lost supersteps.
func (e *Engine[V, M]) restoreCheckpoint() {
	cp := e.checkpoint
	copy(e.values, cp.values)
	copy(e.active, cp.active)
	e.aggPrev = cp.aggPrev
	e.inTotal = cp.inTotal
	e.mailTotal = cp.mailTotal
	nw := e.cfg.NumWorkers
	if e.columnar {
		for r := 0; r < nw; r++ {
			restoreCols(e.colIn[r].off, &e.colIn[r].cols, cp.colIn[r])
			restoreCols(nil, &e.colMail[r], cp.colMail[r])
		}
		// The inbox no longer references the live arenas; recycle them. A
		// crash mid-superstep (FaultMidPipeline / FaultAtBarrier) also leaves
		// the current generation filled but never shifted — recycle it too.
		for s := 0; s < nw; s++ {
			for r := 0; r < nw; r++ {
				if e.colLive[s][r] != nil {
					e.colFree.put(e.colLive[s][r])
					e.colLive[s][r] = nil
				}
				if e.colCur[s][r] != nil {
					e.colFree.put(e.colCur[s][r])
					e.colCur[s][r] = nil
				}
			}
		}
	} else {
		for r := 0; r < nw; r++ {
			copy(e.boxIn[r].off, cp.boxOff[r])
			e.boxIn[r].msgs = append(e.boxIn[r].msgs[:0], cp.boxMsgs[r]...)
			e.boxMail[r] = append(e.boxMail[r][:0], cp.boxMail[r]...)
		}
	}
	if cp.hasProg {
		e.prog.(ProgramStater).RestoreProgState(cp.progState)
	}
	if len(e.metrics) > cp.step {
		e.metrics = e.metrics[:cp.step]
	}
}

// Recoveries reports how many checkpoint recoveries the run performed.
func (e *Engine[V, M]) Recoveries() int { return e.recoveries }

// forEachWorker runs fn(i) for every worker index, on goroutines when the
// engine is parallel. Callers guarantee fn(i) only touches state owned by
// worker i (its metrics entry, its send buffers, its inbox, its vertices).
func (e *Engine[V, M]) forEachWorker(fn func(i int)) {
	if !e.cfg.Parallel || e.cfg.NumWorkers == 1 {
		for i := range e.workers {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range e.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runSuperstep executes one superstep. It returns true when an injected
// fault crashed the step partway: the caller must roll back to the latest
// checkpoint — everything the step produced (send buffers, delivered
// inboxes, its metrics row) is lost work that restoreCheckpoint
// discards.
func (e *Engine[V, M]) runSuperstep(step int) (crashed bool) {
	e.supersteps = step + 1
	e.executed++
	stepMetrics := e.carveStepMetrics()
	for w := range stepMetrics {
		stepMetrics[w] = StepMetrics{Superstep: step, Worker: w}
	}
	e.metrics = append(e.metrics, stepMetrics)

	nw := e.cfg.NumWorkers
	for _, w := range e.workers {
		w.m = &e.metrics[len(e.metrics)-1][w.id]
		w.stepCost = 0
		w.aggLocal = nil
		w.stamp++
		if e.columnar {
			for r := 0; r < nw; r++ {
				b := e.colFree.get(e.colLive[w.id][r])
				if e.colLive[w.id][r] == nil && e.cfg.Columnar.ReserveMsgs > 0 {
					// Cold buffer (first two generations): apply the
					// program's volume hint instead of growing by doubling.
					b.reserve(e.cfg.Columnar.ReserveMsgs, e.cfg.Columnar.ReserveFloats)
				}
				e.colCur[w.id][r] = b
			}
		} else {
			for r := range w.out {
				w.out[r].dsts = w.out[r].dsts[:0]
				w.out[r].srcs = w.out[r].srcs[:0]
				w.out[r].msgs = w.out[r].msgs[:0]
			}
		}
	}

	// Compute phase: every worker runs its owned vertices against the
	// current inbox, sending into its own per-destination buffers.
	e.forEachWorker(func(i int) { e.computeWorker(e.workers[i], step) })

	// Fault point: compute finished (send data produced), barrier not yet
	// run. The send buffers are discarded with the rest of the step.
	if e.faultAt(step, FaultMidPipeline) {
		return true
	}

	// Barrier. Send-side accounting is parallel over senders (each writes
	// its own metrics entry); delivery is parallel over receivers (each owns
	// a disjoint inbox and drains sender buffers in worker-id order, keeping
	// per-destination message order independent of scheduling).
	if e.columnar {
		e.forEachWorker(func(i int) { e.accountSent(i) })
		e.forEachWorker(func(i int) { e.deliverColumnar(i) })
	} else {
		e.forEachWorker(func(i int) { e.accountSent(i) })
		e.forEachWorker(func(i int) { e.deliverBoxed(i) })
	}

	// Fault point: delivery/merge done, superstep not yet committed (totals,
	// aggregators, generation shift) — the freshly merged inboxes are lost.
	if e.faultAt(step, FaultAtBarrier) {
		return true
	}

	inTotal, mailTotal := 0, 0
	if e.columnar {
		for r := 0; r < nw; r++ {
			inTotal += len(e.colIn[r].cols.kinds)
			mailTotal += len(e.colMail[r].kinds)
		}
	} else {
		for r := 0; r < nw; r++ {
			inTotal += len(e.boxIn[r].msgs)
			mailTotal += len(e.boxMail[r])
		}
	}
	e.inTotal, e.mailTotal = inTotal, mailTotal

	// Merge aggregators serially in worker-id order (last writer wins, as
	// in the seed engine). The map is only allocated when some worker
	// published this superstep — aggregator-free programs (the GNN driver)
	// skip the per-superstep allocation, and reads on a nil map miss as
	// before.
	var agg map[string][]float32
	for _, w := range e.workers {
		for k, v := range w.aggLocal {
			if agg == nil {
				agg = map[string][]float32{}
			}
			agg[k] = v
		}
	}
	e.aggPrev = agg

	// Shift send-buffer generations: the buffers consumed by this
	// superstep's compute recycle; the ones just filled back the new inbox
	// views and stay live for one more superstep.
	if e.columnar {
		for s := 0; s < nw; s++ {
			for r := 0; r < nw; r++ {
				if e.colLive[s][r] != nil {
					e.colFree.put(e.colLive[s][r])
				}
				e.colLive[s][r] = e.colCur[s][r]
				e.colCur[s][r] = nil
			}
		}
	}
	return false
}

// carveStepMetrics returns this superstep's NumWorkers-wide metrics window,
// carved from the slab (growing it by doubling when exhausted) instead of
// allocating one slice per superstep.
func (e *Engine[V, M]) carveStepMetrics() []StepMetrics {
	nw := e.cfg.NumWorkers
	if cap(e.metricsSlab)-len(e.metricsSlab) < nw {
		grow := 8 * nw
		if c := 2 * cap(e.metricsSlab); c > grow {
			grow = c
		}
		// Retired blocks stay referenced by the windows already handed out;
		// only the tail moves to the fresh block.
		e.metricsSlab = make([]StepMetrics, 0, grow)
	}
	lo := len(e.metricsSlab)
	e.metricsSlab = e.metricsSlab[:lo+nw]
	return e.metricsSlab[lo : lo+nw : lo+nw]
}

// computeWorker runs one worker's compute phase for a superstep.
func (e *Engine[V, M]) computeWorker(w *worker[V, M], step int) {
	m := w.m
	if e.batch != nil {
		// Batched plane: the engine keeps the per-vertex activity and IO
		// accounting (identical to the columnar per-vertex loop below), then
		// hands the whole partition to ComputeBatch in one call.
		e.accountMail(w)
		in := &e.colIn[w.id]
		for li, v := range w.verts {
			lo, hi := in.off[li], in.off[li+1]
			w.computed[li] = e.active[v] || lo != hi
			w.halted[li] = false
			if !w.computed[li] {
				continue
			}
			e.accountComputed(m, in, lo, hi)
		}
		e.batch.ComputeBatch(&BatchContext[V, M]{worker: w, Superstep: step})
		for li, v := range w.verts {
			if w.computed[li] {
				e.active[v] = !w.halted[li]
			}
		}
		m.ComputeCost = w.stepCost
		return
	}
	if e.columnar {
		e.accountMail(w)
		in := &e.colIn[w.id]
		ctx := &Context[V, M]{worker: w, Superstep: step}
		for li, v := range w.verts {
			lo, hi := in.off[li], in.off[li+1]
			if !e.active[v] && lo == hi {
				continue
			}
			e.accountComputed(m, in, lo, hi)
			ctx.ID, ctx.Value, ctx.inLo, ctx.inHi, ctx.halted = v, &e.values[v], lo, hi, false
			e.prog.Compute(ctx, nil)
			e.active[v] = !ctx.halted
		}
	} else {
		for _, ms := range e.boxMail[w.id] {
			m.MessagesReceived++
			m.BytesReceived += int64(e.cfg.MessageBytes(ms))
		}
		in := &e.boxIn[w.id]
		ctx := &Context[V, M]{worker: w, Superstep: step}
		for li, v := range w.verts {
			msgs := in.msgs[in.off[li]:in.off[li+1]]
			if !e.active[v] && len(msgs) == 0 {
				continue
			}
			m.ActiveVertices++
			m.MessagesReceived += int64(len(msgs))
			for _, one := range msgs {
				m.BytesReceived += int64(e.cfg.MessageBytes(one))
			}
			ctx.ID, ctx.Value, ctx.halted = v, &e.values[v], false
			e.prog.Compute(ctx, msgs)
			e.active[v] = !ctx.halted
		}
	}
	m.ComputeCost = w.stepCost
}

// accountMail charges worker w's columnar mailbox to its receive totals.
func (e *Engine[V, M]) accountMail(w *worker[V, M]) {
	mail := &e.colMail[w.id]
	for i := range mail.kinds {
		w.m.MessagesReceived++
		w.m.BytesReceived += int64(e.colBytes(mail.kinds[i], len(mail.pays[i])))
	}
}

// accountComputed counts one computed vertex and charges its columnar inbox
// rows [lo, hi) to m's receive totals.
func (e *Engine[V, M]) accountComputed(m *StepMetrics, in *colInbox, lo, hi int32) {
	m.ActiveVertices++
	m.MessagesReceived += int64(hi - lo)
	for i := lo; i < hi; i++ {
		m.BytesReceived += int64(e.colBytes(in.cols.kinds[i], len(in.cols.pays[i])))
	}
}

// accountSent charges sender s for every message (and its wire bytes) it
// buffered this superstep. Bytes are measured on the post-combine buffers —
// from the arena extents on the columnar plane. Traffic addressed to other
// workers is additionally recorded as remote: the share a locality-aware
// partitioner can reduce.
func (e *Engine[V, M]) accountSent(s int) {
	w := e.workers[s]
	m := w.m
	if e.columnar {
		for r := 0; r < e.cfg.NumWorkers; r++ {
			b := e.colCur[s][r]
			m.MessagesSent += int64(len(b.dsts))
			var bytes int64
			for i := range b.dsts {
				bytes += int64(e.colBytes(b.kinds[i], int(b.lens[i])))
			}
			m.BytesSent += bytes
			if r != s {
				m.RemoteMessagesSent += int64(len(b.dsts))
				m.RemoteBytesSent += bytes
			}
		}
	} else {
		for r := range w.out {
			p := &w.out[r]
			m.MessagesSent += int64(len(p.dsts))
			var bytes int64
			for i := range p.msgs {
				bytes += int64(e.cfg.MessageBytes(p.msgs[i]))
			}
			m.BytesSent += bytes
			if r != s {
				m.RemoteMessagesSent += int64(len(p.dsts))
				m.RemoteBytesSent += bytes
			}
		}
	}
}

// deliverColumnar rebuilds receiver r's CSR inbox and mailbox with a
// counting sort over the sender buffers addressed to it. Worker mail drains
// in sender-worker-id order (mailboxes are per-worker state); vertex
// messages are scattered in globally ascending source order via the sender
// merge, so every destination's inbox order is independent of vertex
// placement and worker count. Payloads are not copied: inbox entries are
// views into the sender arenas, which stay live until the next barrier.
func (e *Engine[V, M]) deliverColumnar(r int) {
	in := &e.colIn[r]
	off := in.off
	for i := range off {
		off[i] = 0
	}
	mailN := 0
	nw := e.cfg.NumWorkers
	for s := 0; s < nw; s++ {
		for _, dst := range e.colCur[s][r].dsts {
			if dst < 0 {
				mailN++
			} else {
				off[e.localIdx[dst]+1]++
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	total := int(off[len(off)-1])
	in.cols.resize(total)
	copy(in.next, off[:len(in.next)])
	e.fillColMail(r, mailN)
	// Source-order merge of the vertex-addressed rows: each sender buffer
	// is ascending in source id (workers compute owned vertices in id
	// order) and a source is owned by exactly one worker, so consuming the
	// buffer with the smallest head source yields the unique global order —
	// the same at any worker count and under any vertex placement. Head
	// sources are cached in a flat int32 scratch (exhausted buffers pinned
	// at the sentinel), and the winning buffer is drained in runs — every
	// row up to the runner-up's head — so locality-heavy placements pay the
	// head scan once per run, not once per message. Mod-N hash placement is
	// the worst case: ascending sources alternate owners, runs collapse to
	// single rows, and every message pays the nw-wide scan — the ~5–15%
	// barrier cost recorded in DESIGN.md, the price of placement-
	// independent delivery on the placement that benefits least from it.
	cur, heads := e.mergeCur[r], e.mergeHeads[r]
	live := 0
	for s := 0; s < nw; s++ {
		b := e.colCur[s][r]
		cur[s] = skipMail(b.dsts, 0)
		if cur[s] < len(b.dsts) {
			heads[s] = b.srcs[cur[s]]
			live++
		} else {
			heads[s] = mergeDone
		}
	}
	if live == 1 {
		// Single-sender fast path (one worker, or a converged region): the
		// buffer order already is the global order.
		for s := 0; s < nw; s++ {
			b := e.colCur[s][r]
			for i := cur[s]; i < len(b.dsts); i++ {
				if dst := b.dsts[i]; dst >= 0 {
					e.scatterColRow(in, b, i, dst)
				}
			}
		}
		return
	}
	for {
		best, second := mergeBest(heads)
		if best == -1 {
			break
		}
		b := e.colCur[best][r]
		i := cur[best]
		for i < len(b.dsts) {
			if dst := b.dsts[i]; dst >= 0 {
				if b.srcs[i] > second {
					break
				}
				e.scatterColRow(in, b, i, dst)
			}
			i++
		}
		cur[best] = i
		if i < len(b.dsts) {
			heads[best] = b.srcs[i]
		} else {
			heads[best] = mergeDone
		}
	}
}

// scatterColRow delivers one columnar row into its receiver's CSR slot.
func (e *Engine[V, M]) scatterColRow(in *colInbox, b *colBuf, i int, dst int32) {
	li := e.localIdx[dst]
	slot := in.next[li]
	in.next[li]++
	in.cols.set(int(slot), b.kinds[i], b.srcs[i], b.counts[i], b.payload(i))
	// A message reactivates its destination.
	e.active[dst] = true
}

// fillColMail rebuilds receiver r's worker mailbox from the current send
// buffers in sender-major, buffer order (mailboxes are per-worker state, so
// this order is the contract).
func (e *Engine[V, M]) fillColMail(r, mailN int) {
	mail := &e.colMail[r]
	mail.resize(mailN)
	if mailN == 0 {
		return
	}
	mi := 0
	for s := 0; s < e.cfg.NumWorkers; s++ {
		b := e.colCur[s][r]
		for i, dst := range b.dsts {
			if dst < 0 {
				mail.set(mi, b.kinds[i], b.srcs[i], b.counts[i], b.payload(i))
				mi++
			}
		}
	}
}

// mergeDone is the exhausted-buffer sentinel of the barrier merge: above
// every vertex id, so a drained buffer never wins the head scan.
const mergeDone = int32(math.MaxInt32)

// mergeBest scans the cached head sources and returns the winning buffer
// (lowest head, ties to the lowest index) and the runner-up head value —
// the run bound the winner may drain up to. best is -1 when every buffer
// is exhausted. Shared by both planes' delivery loops so the subtle part
// of the merge has exactly one implementation.
func mergeBest(heads []int32) (best int, second int32) {
	best = -1
	bestSrc := mergeDone
	second = mergeDone
	for s, h := range heads {
		if h < bestSrc {
			best, second, bestSrc = s, bestSrc, h
		} else if h < second {
			second = h
		}
	}
	return best, second
}

// skipMail advances i past worker-mail rows (dst < 0).
func skipMail(dsts []int32, i int) int {
	for i < len(dsts) && dsts[i] < 0 {
		i++
	}
	return i
}

// deliverBoxed is deliverColumnar for the boxed plane: same counting sort
// and source-order merge, message values copied into the receiver's flat
// inbox.
func (e *Engine[V, M]) deliverBoxed(r int) {
	in := &e.boxIn[r]
	off := in.off
	for i := range off {
		off[i] = 0
	}
	mailN := 0
	nw := e.cfg.NumWorkers
	for s := 0; s < nw; s++ {
		for _, dst := range e.workers[s].out[r].dsts {
			if dst < 0 {
				mailN++
			} else {
				off[e.localIdx[dst]+1]++
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	total := int(off[len(off)-1])
	if cap(in.msgs) < total {
		in.msgs = make([]M, total)
	} else {
		in.msgs = in.msgs[:total]
	}
	copy(in.next, off[:len(in.next)])
	mail := e.boxMail[r][:0]
	if cap(mail) < mailN {
		mail = make([]M, 0, mailN)
	}
	if mailN > 0 {
		for s := 0; s < nw; s++ {
			p := &e.workers[s].out[r]
			for i, dst := range p.dsts {
				if dst < 0 {
					mail = append(mail, p.msgs[i])
				}
			}
		}
	}
	cur, heads := e.mergeCur[r], e.mergeHeads[r]
	live := 0
	for s := 0; s < nw; s++ {
		p := &e.workers[s].out[r]
		cur[s] = skipMail(p.dsts, 0)
		if cur[s] < len(p.dsts) {
			heads[s] = p.srcs[cur[s]]
			live++
		} else {
			heads[s] = mergeDone
		}
	}
	deliverRow := func(p *pending[M], i int, dst int32) {
		li := e.localIdx[dst]
		slot := in.next[li]
		in.next[li]++
		in.msgs[slot] = p.msgs[i]
		// A message reactivates its destination.
		e.active[dst] = true
	}
	if live == 1 {
		for s := 0; s < nw; s++ {
			p := &e.workers[s].out[r]
			for i := cur[s]; i < len(p.dsts); i++ {
				if dst := p.dsts[i]; dst >= 0 {
					deliverRow(p, i, dst)
				}
			}
		}
		e.boxMail[r] = mail
		return
	}
	for {
		best, second := mergeBest(heads)
		if best == -1 {
			break
		}
		p := &e.workers[best].out[r]
		i := cur[best]
		for i < len(p.dsts) {
			if dst := p.dsts[i]; dst >= 0 {
				if p.srcs[i] > second {
					break
				}
				deliverRow(p, i, dst)
			}
			i++
		}
		cur[best] = i
		if i < len(p.dsts) {
			heads[best] = p.srcs[i]
		} else {
			heads[best] = mergeDone
		}
	}
	e.boxMail[r] = mail
}

// VertexValue returns a pointer to v's value after Run.
func (e *Engine[V, M]) VertexValue(v int32) *V { return &e.values[v] }

// Values returns the full value slice (indexed by vertex id).
func (e *Engine[V, M]) Values() []V { return e.values }

// Supersteps reports how many supersteps executed.
func (e *Engine[V, M]) Supersteps() int { return e.supersteps }

// Metrics returns per-superstep, per-worker metrics.
func (e *Engine[V, M]) Metrics() [][]StepMetrics { return e.metrics }

// TotalMetrics sums the per-step metrics into one record per worker.
func (e *Engine[V, M]) TotalMetrics() []StepMetrics {
	out := make([]StepMetrics, e.cfg.NumWorkers)
	for w := range out {
		out[w].Worker = w
	}
	for _, step := range e.metrics {
		for w, m := range step {
			out[w].ActiveVertices += m.ActiveVertices
			out[w].MessagesSent += m.MessagesSent
			out[w].MessagesReceived += m.MessagesReceived
			out[w].BytesSent += m.BytesSent
			out[w].BytesReceived += m.BytesReceived
			out[w].RemoteMessagesSent += m.RemoteMessagesSent
			out[w].RemoteBytesSent += m.RemoteBytesSent
			out[w].CombinedAway += m.CombinedAway
			out[w].ComputeCost += m.ComputeCost
			out[w].CheckpointNs += m.CheckpointNs
		}
	}
	return out
}
