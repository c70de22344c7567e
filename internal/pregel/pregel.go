// Package pregel implements a Pregel-like bulk-synchronous graph processing
// engine: the substrate InferTurbo's GNN inference runs on. Vertices are
// placed on workers together with their out-edges; a computation proceeds
// in supersteps where every worker computes its active vertices against
// the messages addressed to them and sends messages along out-edges for the
// next superstep.
//
// The engine has one program kind, BatchProgram: ComputeBatch runs once per
// worker per superstep with the worker's whole owned range and its full CSR
// inbox, so a partition-centric program replaces millions of tiny
// per-vertex operations with a few dense kernel calls — one GAS
// (gather-apply-scatter) iteration per superstep. Programs keep their
// per-vertex state in their own slabs and checkpoint it through
// ProgramStater; the engine keeps only activity flags and messages.
//
// Messages are columnar (see columnar.go): fixed header columns with
// payloads packed into recycled []float32 pages, so a steady-state
// superstep allocates nothing per message. Besides vertex messages there is
// worker mail (SendColumnarToWorker), the channel the GNN pass's broadcast
// strategy ships a hub's payload on once per destination worker.
//
// The engine reproduces the system behaviours the paper's evaluation
// depends on: sender-side combining (Config.Combine, the hook partial-gather
// uses), deterministic message delivery, and per-worker, per-superstep
// traffic/compute accounting that feeds the cluster cost model.
//
// Every superstep ends in one barrier: a counting sort builds per-receiver
// CSR inboxes, with delivery parallelized across receiving workers. Each
// receiver owns a disjoint vertex range and merges its sender buffers by
// ascending source vertex id — well-defined because workers compute their
// owned vertices in id order, making every sender buffer source-sorted, and
// because a source is owned by exactly one worker. Per-destination message
// order is therefore a function of the topology and the program alone:
// identical at any worker count, under any vertex placement
// (Config.Partitioner), parallel or not — which is what makes results
// bit-identical across all of those axes.
//
// Vertex placement defaults to mod-N hashing and is pluggable through
// Config.Partitioner; the engine converts whatever placement it is given
// into dense workerOf/localIdx tables once, so the per-message hot paths
// never depend on the strategy.
package pregel

import (
	"fmt"
	"math"
	"sync"
	"time"

	"inferturbo/internal/graph"
)

// BatchProgram is the engine's program: ComputeBatch runs once per worker
// per superstep with the worker's whole owned-vertex range and its full CSR
// columnar inbox. Programs that batch their per-vertex work into dense
// kernel calls (the GNN driver's one MatMul per layer per partition) avoid
// per-vertex dispatch and allocation.
//
// The engine does the activity accounting per vertex: a vertex is computed
// this superstep iff it is active or has inbox messages, computed vertices
// stay active afterwards unless halted through the BatchContext, and the
// inbox lists each vertex's messages in the barrier's canonical delivery
// order (ascending source id, emission order within a source). A program
// that folds each vertex's inbox range in order therefore sees the same
// operand order at every worker count and placement.
type BatchProgram interface {
	ComputeBatch(ctx *BatchContext)
}

// ProgramStater is implemented by programs that keep superstep-to-superstep
// state — batch programs own per-worker state slabs. When checkpointing is
// enabled the engine snapshots that state alongside its own:
// SnapshotProgState must return a deep copy of everything the next
// superstep reads (it is never written after capture), and
// RestoreProgState must reinstall such a snapshot, after which the program
// re-executes from the checkpointed superstep.
type ProgramStater interface {
	SnapshotProgState() any
	RestoreProgState(snap any)
}

// Config tunes an engine run.
type Config struct {
	NumWorkers    int
	MaxSupersteps int
	// Partitioner places vertices on workers. nil selects the mod-N hash
	// over NumWorkers; a non-nil value must report the same worker count.
	// The barrier's source-merged delivery keeps every destination's inbox
	// order placement-independent, so for combine-free programs placement
	// changes traffic only, never results; with Combine set, merges group
	// by sending worker, so placement additionally regroups the combiner's
	// folds (each configuration stays deterministic).
	Partitioner graph.Partitioner
	// Combine, when non-nil, merges an in-flight payload into the payload
	// view acc of an earlier message for the same destination sent by the
	// same worker this superstep, in place — Pregel's sender-side
	// combining, the mechanism behind the paper's partial-gather. It is
	// only invoked when the two messages carry the same kind byte and
	// payload length; acc and pay are both that long. Returning the merged
	// count and true commits the merge; returning false declines it,
	// leaving both messages to be delivered individually (later messages
	// for the same destination still attempt to merge with the first one).
	Combine func(kind uint8, acc, pay []float32, accCount, payCount int32) (int32, bool)
	// Bytes estimates the wire size of a message from its kind byte and
	// payload length, feeding the IO accounting. Defaults to
	// 4*payloadLen+16 when nil.
	Bytes func(kind uint8, payloadLen int) int
	// Parallel executes workers on goroutines — both the compute phase and
	// the barrier's delivery (receivers own disjoint inboxes). Delivery
	// order stays deterministic either way.
	Parallel bool
	// CheckpointEvery snapshots engine state every n supersteps (0 = off),
	// enabling recovery after a worker failure. Program state is captured
	// through ProgramStater; in-flight message payloads are deep-copied out
	// of the live pages.
	CheckpointEvery int
	// Faults schedules deterministic crash injections: multiple crashes per
	// run, at any superstep lifecycle point (before compute, after compute
	// but before the barrier, at the barrier, during checkpoint capture).
	// Each injected crash loses that superstep's work; the engine restores
	// the latest checkpoint and re-executes. See FaultPlan. nil injects
	// nothing.
	Faults *FaultPlan
	// SuperstepHook, when non-nil, runs on the engine goroutine at the start
	// of every superstep, before the cancellation poll and any compute. A
	// hook that kills the process (cmd/serve -die-at) therefore dies at a
	// deterministic point of the pass.
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
	ComputeCost        int64 // user-charged units via BatchContext.AddCost
	// CheckpointNs is the wall time of the in-memory snapshot taken after
	// this superstep, charged to worker 0's row (capture blocks the whole
	// engine). Zero on non-checkpoint supersteps.
	CheckpointNs int64
}

// BatchContext is handed to ComputeBatch: one call sees the worker's whole
// partition for the superstep. It is only valid for the duration of the
// call, and every view it returns (owned ids, inbox columns, mailboxes) is
// engine-owned and must not be mutated or retained.
type BatchContext struct {
	worker    *worker
	Superstep int
}

// WorkerID returns the worker executing this batch.
func (c *BatchContext) WorkerID() int { return c.worker.id }

// Owned returns the worker's owned vertex ids in local-index order: vertex
// Owned()[li] has local index li, the row index of every per-partition
// structure (the inbox CSR, a program's state slabs).
func (c *BatchContext) Owned() []int32 { return c.worker.verts }

// Computed reports whether local vertex li computes this superstep — it is
// active or has inbox messages. Programs whose vertices never halt mid-run
// (the GNN driver) can ignore this and process the full range.
func (c *BatchContext) Computed(li int) bool { return c.worker.computed[li] }

// InboxCSR returns the worker's full columnar inbox for the superstep as a
// CSR view: local vertex li's messages are msgs[off[li]:off[li+1]], in the
// canonical delivery order. The view is only valid during ComputeBatch.
func (c *BatchContext) InboxCSR() (off []int32, msgs Batch) {
	in := &c.worker.engine.colIn[c.worker.id]
	off = in.off
	return off, in.cols.batch(0, off[len(off)-1])
}

// ColumnarWorkerMail returns the columnar messages addressed to this worker
// (via SendColumnarToWorker) during the previous superstep.
func (c *BatchContext) ColumnarWorkerMail() Batch {
	m := &c.worker.engine.colMail[c.worker.id]
	return m.batch(0, int32(len(m.kinds)))
}

// SendColumnar routes a columnar message to vertex dst for the next
// superstep: kind is an opaque tag (also the combiner's merge gate), src and
// count ride in header columns, and payload is copied into the send buffer —
// the caller's slice is not retained and may be reused immediately.
//
// src is also the barrier's delivery-order key: pass the sending vertex's
// id, and send each worker's messages in owned-vertex order, as every bundled
// program does. The engine then delivers each destination's messages in
// globally ascending src order — independent of vertex placement and worker
// count. A program that sends under arbitrary src values still gets
// deterministic delivery, but the order degrades to a placement-dependent
// one (sender-worker-id major).
func (c *BatchContext) SendColumnar(dst int32, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnar(dst, kind, src, count, payload)
}

// SendColumnarFan routes one identical payload to every destination in
// dsts, in order, copying it into each destination-worker buffer at most
// once — results are identical to len(dsts) SendColumnar calls; only the
// payload bytes moved differ. The natural send for broadcast-safe scatters.
// src carries the same delivery-order contract as SendColumnar.
func (c *BatchContext) SendColumnarFan(dsts []int32, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnarFan(dsts, kind, src, count, payload)
}

// SendColumnarToWorker routes a columnar message to worker w's mailbox, read
// back next superstep via ColumnarWorkerMail.
func (c *BatchContext) SendColumnarToWorker(w int, kind uint8, src, count int32, payload []float32) {
	c.worker.sendColumnarToWorker(w, kind, src, count, payload)
}

// ExecSeq returns the count of supersteps the engine has executed so far,
// including checkpoint-recovery replays. Unlike Superstep it never repeats,
// so it is the correct key for any per-superstep cache of zero-copy views:
// a replayed superstep carries the same Superstep number as its original
// execution but rebuilt inboxes and mailboxes.
func (c *BatchContext) ExecSeq() int { return c.worker.engine.executed }

// AddCost charges user-defined compute units (e.g. flops) to this worker's
// current superstep, feeding the cluster cost model.
func (c *BatchContext) AddCost(units int64) { c.worker.stepCost += units }

// Halt deactivates local vertex li until a message arrives for it. Only
// computed vertices are affected.
func (c *BatchContext) Halt(li int) { c.worker.halted[li] = true }

// HaltAll deactivates every computed vertex of the partition.
func (c *BatchContext) HaltAll() {
	for i := range c.worker.halted {
		c.worker.halted[i] = true
	}
}

type worker struct {
	engine *Engine
	id     int
	verts  []int32 // owned vertex ids

	// Dense sender-side combiner index replacing a per-superstep
	// map[int32]int: lastSeen[dst] is the buffer index of the first message
	// this worker sent to dst in the current superstep, valid iff
	// seenStamp[dst] == stamp. stamp increments each superstep, so no
	// clearing pass is needed. Allocated only when Combine is configured.
	// Footprint is a deliberate trade: 8 bytes x NumVertices per worker
	// buys branch-free O(1) lookups on the per-message hot path; in the
	// distributed deployment this simulates, each worker is a separate
	// machine and maps would cost more than the dense array there.
	lastSeen  []int32
	seenStamp []uint32
	stamp     uint32

	// Per-superstep activity (len ownedCount): computed[li] records whether
	// local vertex li computes this superstep; halted[li] collects
	// BatchContext.Halt votes.
	computed []bool
	halted   []bool

	// Fan-out scratch (len NumWorkers): fanPay[dw] is the view of the
	// payload this fan already copied into destination worker dw's buffer,
	// or nil. It is kept as the view itself, not as a row, so later aliases
	// read the pristine payload even after a combine has moved the first
	// row onto a private copy.
	fanPay [][]float32

	m        *StepMetrics // this worker's metrics entry for the current superstep
	stepCost int64
}

func (w *worker) sendColumnar(dst int32, kind uint8, src, count int32, pay []float32) {
	e := w.engine
	dw := e.workerOf[dst]
	b := e.colCur[w.id][dw]
	if e.cfg.Combine != nil {
		if w.seenStamp[dst] == w.stamp {
			i := w.lastSeen[dst]
			if b.kinds[i] == kind && len(b.pays[i]) == len(pay) {
				acc := b.mergeTarget(i)
				if merged, ok := e.cfg.Combine(kind, acc, pay, b.counts[i], count); ok {
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
// payload is copied into each destination-worker buffer at most once; every
// further send to the same worker appends only a header row aliasing that
// view, so a hub's out-edges cost one payload copy per worker instead of
// one per edge. Fan views are marked shared, which makes any combine into
// them copy-on-first-merge (see colBuf.mergeTarget) — delivered values, and
// therefore results, are identical to issuing len(dsts) individual
// sendColumnar calls; only the payload bytes differ.
func (w *worker) sendColumnarFan(dsts []int32, kind uint8, src, count int32, pay []float32) {
	e := w.engine
	fan := w.fanPay[:e.cfg.NumWorkers]
	clear(fan)
	for _, dst := range dsts {
		dw := e.workerOf[dst]
		b := e.colCur[w.id][dw]
		if e.cfg.Combine != nil {
			if w.seenStamp[dst] == w.stamp {
				i := w.lastSeen[dst]
				if b.kinds[i] == kind && len(b.pays[i]) == len(pay) {
					acc := b.mergeTarget(i)
					if merged, ok := e.cfg.Combine(kind, acc, pay, b.counts[i], count); ok {
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
		if v := fan[dw]; v != nil {
			b.addAlias(dst, kind, src, count, v)
			continue
		}
		b.add(dst, kind, src, count, pay)
		// The freshly appended view is this fan's shared source: combines
		// must not fold into it in place, or later aliases would read the
		// merged value instead of the pristine payload.
		fan[dw] = b.pays[len(b.pays)-1]
		b.shared[len(b.shared)-1] = true
	}
}

func (w *worker) sendColumnarToWorker(dw int, kind uint8, src, count int32, pay []float32) {
	w.engine.colCur[w.id][dw].add(-1, kind, src, count, pay)
}

// Engine executes a BatchProgram over a graph.
type Engine struct {
	prog BatchProgram
	cfg  Config
	part graph.Partitioner

	active  []bool
	workers []*worker

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

	// Per-receiver inboxes/mailboxes plus the send-buffer generations.
	// colCur[s][r] is filled by sender s during the current superstep;
	// colLive holds the previous generation, whose pages back the current
	// inbox views, and recycles into colFree at the barrier.
	colIn   []colInbox
	colMail []colCols
	colCur  [][]*colBuf
	colLive [][]*colBuf
	colFree bufPool

	inTotal   int // vertex-addressed messages awaiting the next superstep
	mailTotal int // worker-addressed messages awaiting the next superstep

	metrics [][]StepMetrics // one entry per executed superstep (replays add entries)
	// metricsSlab backs the per-superstep metrics windows: supersteps carve
	// NumWorkers-wide windows out of one block allocation instead of
	// allocating a fresh slice each superstep. Earlier windows keep aliasing
	// retired blocks after growth, which is sound because a window is only
	// written during its own superstep.
	metricsSlab []StepMetrics
	supersteps  int
	executed    int // total supersteps executed, never rolled back by recovery

	checkpoint *snapshot
	spare      *snapshot // displaced checkpoint, recycled by the next capture
	recoveries int
	faults     []faultState

	ckptCount  int
	ckptWallNs int64
}

// snapshot is a recovery point: everything the next superstep reads. All
// fields are deep copies (payloads included — see columnar.go) and are
// never written after capture.
type snapshot struct {
	step   int
	active []bool

	inTotal   int
	mailTotal int

	colIn   []colSnap
	colMail []colSnap

	// program-owned state (ProgramStater), e.g. a batch program's slabs
	progState any
	hasProg   bool
}

// NewEngine constructs an engine running prog over g; Run executes it.
func NewEngine(g *graph.Graph, prog BatchProgram, cfg Config) *Engine {
	if cfg.NumWorkers <= 0 {
		panic(fmt.Sprintf("pregel: invalid worker count %d", cfg.NumWorkers))
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 64
	}
	if cfg.Bytes == nil {
		cfg.Bytes = func(_ uint8, payloadLen int) int { return 4*payloadLen + 16 }
	}
	part := cfg.Partitioner
	if part == nil {
		part = graph.NewPartitioner(cfg.NumWorkers)
	} else if part.NumWorkers() != cfg.NumWorkers {
		panic(fmt.Sprintf("pregel: partitioner has %d workers, config %d", part.NumWorkers(), cfg.NumWorkers))
	}
	e := &Engine{prog: prog, cfg: cfg, part: part}
	e.faults = buildFaults(cfg.Faults)
	n := g.NumNodes
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
	e.colIn = make([]colInbox, nw)
	e.colMail = make([]colCols, nw)
	e.colCur = make([][]*colBuf, nw)
	e.colLive = make([][]*colBuf, nw)
	e.colFree.free = make([]*colBuf, nw*nw)
	e.mergeCur = make([][]int, nw)
	e.mergeHeads = make([][]int32, nw)
	for w := 0; w < nw; w++ {
		e.colCur[w] = make([]*colBuf, nw)
		e.colLive[w] = make([]*colBuf, nw)
		e.mergeCur[w] = make([]int, nw)
		e.mergeHeads[w] = make([]int32, nw)
		wk := &worker{engine: e, id: w, verts: e.part.NodesFor(w, n), fanPay: make([][]float32, nw)}
		if cfg.Combine != nil {
			wk.lastSeen = make([]int32, n)
			wk.seenStamp = make([]uint32, n)
		}
		owned := len(wk.verts)
		wk.computed = make([]bool, owned)
		wk.halted = make([]bool, owned)
		e.colIn[w].off = make([]int32, owned+1)
		e.colIn[w].next = make([]int32, owned)
		e.workers = append(e.workers, wk)
	}
	return e
}

// Run executes supersteps until every vertex has halted with no messages in
// flight, or MaxSupersteps is reached. When checkpointing is on and a
// failure is injected, the engine rolls back to the latest checkpoint and
// re-executes — results are identical to a failure-free run because every
// superstep is deterministic.
func (e *Engine) Run() error {
	if e.cfg.CheckpointEvery > 0 && len(e.faults) > 0 {
		// The superstep-0 seed is the rollback target for faults injected
		// before the first periodic checkpoint. Only an injected fault can
		// roll back, so fault-free runs skip the capture entirely.
		e.takeCheckpoint(0)
	}
	for step := 0; step < e.cfg.MaxSupersteps; step++ {
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
				e.captureSnapshotInto(&snapshot{}, step+1)
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
func (e *Engine) recoverFromCrash(step int) error {
	if e.checkpoint == nil {
		return fmt.Errorf("pregel: worker failure at superstep %d with no checkpoint", step)
	}
	e.restoreCheckpoint()
	e.recoveries++
	return nil
}

// takeCheckpoint snapshots everything the upcoming superstep consumes and
// commits the snapshot as the recovery point. Capture wall time is charged
// to worker 0's metrics row of the superstep just finished (the initial
// step-0 capture precedes all metrics and lands only in CheckpointStats).
func (e *Engine) takeCheckpoint(step int) {
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
}

// grabSpare returns the previously displaced checkpoint for slab reuse, else
// a fresh snapshot. Recycling makes the steady-state capture cost a memcpy
// instead of an allocation storm.
func (e *Engine) grabSpare() *snapshot {
	if sp := e.spare; sp != nil {
		e.spare = nil
		return sp
	}
	return &snapshot{}
}

// captureSnapshotInto deep-copies everything the upcoming superstep consumes
// into cp, reusing its slice capacity. Message payloads are deep-copied out
// of the live pages: by the time a recovery replays, the pages backing the
// current inbox views have been recycled and overwritten.
func (e *Engine) captureSnapshotInto(cp *snapshot, step int) {
	cp.step = step
	cp.inTotal = e.inTotal
	cp.mailTotal = e.mailTotal
	cp.active = append(cp.active[:0], e.active...)
	nw := e.cfg.NumWorkers
	if cp.colIn == nil {
		cp.colIn = make([]colSnap, nw)
		cp.colMail = make([]colSnap, nw)
	}
	for r := 0; r < nw; r++ {
		snapColsInto(&cp.colIn[r], e.colIn[r].off, &e.colIn[r].cols)
		snapColsInto(&cp.colMail[r], nil, &e.colMail[r])
	}
	if ps, ok := e.prog.(ProgramStater); ok {
		cp.progState = ps.SnapshotProgState()
		cp.hasProg = true
	}
}

// restoreCheckpoint rolls engine state back to the latest checkpoint,
// discarding the metrics of the lost supersteps.
func (e *Engine) restoreCheckpoint() {
	cp := e.checkpoint
	copy(e.active, cp.active)
	e.inTotal = cp.inTotal
	e.mailTotal = cp.mailTotal
	nw := e.cfg.NumWorkers
	for r := 0; r < nw; r++ {
		restoreCols(e.colIn[r].off, &e.colIn[r].cols, cp.colIn[r])
		restoreCols(nil, &e.colMail[r], cp.colMail[r])
	}
	// The inbox no longer references the live pages; recycle them. A crash
	// mid-superstep (FaultMidPipeline / FaultAtBarrier) also leaves the
	// current generation filled but never shifted — recycle it too.
	for s := 0; s < nw; s++ {
		for r := 0; r < nw; r++ {
			if e.colLive[s][r] != nil {
				e.colFree.put(s*nw+r, e.colLive[s][r])
				e.colLive[s][r] = nil
			}
			if e.colCur[s][r] != nil {
				e.colFree.put(s*nw+r, e.colCur[s][r])
				e.colCur[s][r] = nil
			}
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
func (e *Engine) Recoveries() int { return e.recoveries }

// CheckpointStats aggregates a run's checkpoint activity.
type CheckpointStats struct {
	Checkpoints int   // snapshots committed (including the superstep-0 seed, when taken)
	SnapshotNs  int64 // wall time capturing in-memory snapshots (blocks the run)
}

// CheckpointStats reports the run's checkpoint activity. Valid after Run.
func (e *Engine) CheckpointStats() CheckpointStats {
	return CheckpointStats{Checkpoints: e.ckptCount, SnapshotNs: e.ckptWallNs}
}

// forEachWorker runs fn(i) for every worker index, on goroutines when the
// engine is parallel. Callers guarantee fn(i) only touches state owned by
// worker i (its metrics entry, its send buffers, its inbox, its vertices).
func (e *Engine) forEachWorker(fn func(i int)) {
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
func (e *Engine) runSuperstep(step int) (crashed bool) {
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
		w.stamp++
		for r := 0; r < nw; r++ {
			e.colCur[w.id][r] = e.colFree.get(w.id*nw+r, e.colLive[w.id][r])
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
	// a disjoint inbox and merges sender buffers by source, keeping
	// per-destination message order independent of scheduling).
	e.forEachWorker(func(i int) { e.accountSent(i) })
	e.forEachWorker(func(i int) { e.deliverColumnar(i) })

	// Fault point: delivery/merge done, superstep not yet committed (totals,
	// generation shift) — the freshly merged inboxes are lost.
	if e.faultAt(step, FaultAtBarrier) {
		return true
	}

	inTotal, mailTotal := 0, 0
	for r := 0; r < nw; r++ {
		inTotal += len(e.colIn[r].cols.kinds)
		mailTotal += len(e.colMail[r].kinds)
	}
	e.inTotal, e.mailTotal = inTotal, mailTotal

	// Shift send-buffer generations: the buffers consumed by this
	// superstep's compute recycle; the ones just filled back the new inbox
	// views and stay live for one more superstep.
	for s := 0; s < nw; s++ {
		for r := 0; r < nw; r++ {
			if e.colLive[s][r] != nil {
				e.colFree.put(s*nw+r, e.colLive[s][r])
			}
			e.colLive[s][r] = e.colCur[s][r]
			e.colCur[s][r] = nil
		}
	}
	return false
}

// carveStepMetrics returns this superstep's NumWorkers-wide metrics window,
// carved from the slab (growing it by doubling when exhausted) instead of
// allocating one slice per superstep.
func (e *Engine) carveStepMetrics() []StepMetrics {
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

// computeWorker runs one worker's compute phase for a superstep: the engine
// does the per-vertex activity and IO accounting, then hands the whole
// partition to ComputeBatch in one call.
func (e *Engine) computeWorker(w *worker, step int) {
	m := w.m
	mail := &e.colMail[w.id]
	for i := range mail.kinds {
		m.MessagesReceived++
		m.BytesReceived += int64(e.cfg.Bytes(mail.kinds[i], len(mail.pays[i])))
	}
	in := &e.colIn[w.id]
	for li, v := range w.verts {
		lo, hi := in.off[li], in.off[li+1]
		w.computed[li] = e.active[v] || lo != hi
		w.halted[li] = false
		if !w.computed[li] {
			continue
		}
		m.ActiveVertices++
		m.MessagesReceived += int64(hi - lo)
		for i := lo; i < hi; i++ {
			m.BytesReceived += int64(e.cfg.Bytes(in.cols.kinds[i], len(in.cols.pays[i])))
		}
	}
	e.prog.ComputeBatch(&BatchContext{worker: w, Superstep: step})
	for li, v := range w.verts {
		if w.computed[li] {
			e.active[v] = !w.halted[li]
		}
	}
	m.ComputeCost = w.stepCost
}

// accountSent charges sender s for every message (and its wire bytes) it
// buffered this superstep. Bytes are measured on the post-combine buffers,
// from the payload views. Traffic addressed to other workers is
// additionally recorded as remote: the share a locality-aware partitioner
// can reduce.
func (e *Engine) accountSent(s int) {
	m := e.workers[s].m
	for r := 0; r < e.cfg.NumWorkers; r++ {
		b := e.colCur[s][r]
		m.MessagesSent += int64(len(b.dsts))
		var bytes int64
		for i := range b.dsts {
			bytes += int64(e.cfg.Bytes(b.kinds[i], len(b.pays[i])))
		}
		m.BytesSent += bytes
		if r != s {
			m.RemoteMessagesSent += int64(len(b.dsts))
			m.RemoteBytesSent += bytes
		}
	}
}

// deliverColumnar rebuilds receiver r's CSR inbox and mailbox with a
// counting sort over the sender buffers addressed to it. Worker mail drains
// in sender-worker-id order (mailboxes are per-worker state); vertex
// messages are scattered in globally ascending source order via the sender
// merge, so every destination's inbox order is independent of vertex
// placement and worker count. Payloads are not copied: inbox entries are
// views into the sender pages, which stay live until the next barrier.
func (e *Engine) deliverColumnar(r int) {
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
func (e *Engine) scatterColRow(in *colInbox, b *colBuf, i int, dst int32) {
	li := e.localIdx[dst]
	slot := in.next[li]
	in.next[li]++
	in.cols.set(int(slot), b.kinds[i], b.srcs[i], b.counts[i], b.pays[i])
	// A message reactivates its destination.
	e.active[dst] = true
}

// fillColMail rebuilds receiver r's worker mailbox from the current send
// buffers in sender-major, buffer order (mailboxes are per-worker state, so
// this order is the contract).
func (e *Engine) fillColMail(r, mailN int) {
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
				mail.set(mi, b.kinds[i], b.srcs[i], b.counts[i], b.pays[i])
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
// is exhausted.
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

// Supersteps reports how many supersteps executed.
func (e *Engine) Supersteps() int { return e.supersteps }

// Metrics returns per-superstep, per-worker metrics.
func (e *Engine) Metrics() [][]StepMetrics { return e.metrics }

// TotalMetrics sums the per-step metrics into one record per worker.
func (e *Engine) TotalMetrics() []StepMetrics {
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
