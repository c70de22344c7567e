package pregel

// The pipelined superstep plane (Config.Pipelined): overlap each superstep's
// scatter/delivery with its compute instead of deferring all delivery work
// to one hard barrier.
//
// Senders cut their per-(sender,receiver) columnar send buffers at chunk
// granularity: every ChunkSize owned vertices (automatically on the
// per-vertex plane, via BatchContext.FlushChunk on the batched plane) the
// rows appended since the previous seal form a sealed extent that is eagerly
// flushed to its receiving worker. An extent is not a copy — it captures the
// buffer's dst/kind/len column slices over the sealed row range. Those
// columns are immutable once written (appends only extend the buffer, and
// sender-side combining rewrites only the count column and payload extents),
// so the receiver can assemble an extent while the sender keeps appending —
// even across a column reallocation, since the captured slices keep the old
// backing array alive with the sealed rows intact. The send path itself is
// exactly the BSP code: sealing records row watermarks, it never touches how
// rows are produced, which is what makes bit-identity structural rather
// than coincidental.
//
// Background inbox assembly consumes sealed extents while later chunks are
// still computing: it buckets each extent's rows into the counting sort's
// per-vertex counts and prices the extent's traffic (run-length wire pricing
// over rows sharing a (kind, payload-length) shape — whole extents, for
// identity-payload scatters). Under Parallel execution assembly runs on one
// goroutine per receiver behind a PipelineDepth-bounded queue, filling cores
// that finished their partitions early; in serial runs the same assembly
// executes inline at the flush, which still replaces the BSP barrier's three
// post-compute passes (sent accounting, received accounting, the counting
// sort's first pass) with one cache-warm pass per extent.
//
// The barrier then shrinks to: drain the in-flight extents, prefix-sum the
// pre-bucketed counts, and run the ascending-source merge over the (now
// settled) sender buffers. The merge exploits what the src contract
// guarantees (src = the computing vertex's id, so every buffer is ascending
// in src and every src is owned by exactly one sender): the globally
// ascending source order is simply "vertices in id order, each drained from
// its owner's buffer" — an ownership scan replacing the BSP merge's per-row
// NumWorkers-wide head scan (the documented worst case under mod-N hash
// placement, where runs collapse to single rows). Dense supersteps cost
// O(numVertices + rows); sparse ones (a converged frontier) jump over
// sourceless id stretches to the lowest live head, bounding delivery at
// O(rows + runs·NumWorkers) instead of rescanning every vertex id. A
// program that breaks the contract leaves rows no ownership scan can reach;
// the engine detects the stall and panics deterministically rather than
// dropping messages.
//
// Everything downstream of the barrier is untouched: arenas double-buffer
// through colCur/colLive exactly as on the BSP plane (sealed extents are
// ranges of those same buffers, so they survive into the next superstep's
// send phase for free), checkpoints deep-copy the delivered inbox the same
// way, and inbox views stay zero-copy.

import (
	"sync"
	"sync/atomic"
	"time"
)

// defaultChunkSize is the pipelined plane's default chunk granularity in
// owned vertices; defaultPipelineDepth bounds each receiver's in-flight
// extent queue under Parallel execution; defaultWatchdog is how long a
// sender blocks on a backpressured assembler before degrading it to inline
// assembly (Config.PipelineWatchdog overrides).
const (
	defaultChunkSize     = 64
	defaultPipelineDepth = 32
	defaultWatchdog      = 30 * time.Second
)

// extent is one sealed chunk of a sender→receiver send buffer, in flight to
// the receiver's assembler: zero-copy views of the immutable header columns
// over the sealed row range.
type extent struct {
	sender int
	dsts   []int32
	kinds  []uint8
	lens   []int32
}

// inMetrics carries a receiver's assembled message/byte totals into the next
// superstep's compute metrics (the superstep that consumes them — matching
// when the BSP path counts received traffic).
type inMetrics struct {
	msgs  int64
	bytes int64
}

// inboxAsm is one receiver's background inbox-assembly state for the current
// superstep. During the compute phase it is owned by exactly one goroutine:
// the drain goroutine behind queue under Parallel execution, the single
// engine goroutine otherwise. The barrier reads it only after finishAssembly.
type inboxAsm struct {
	queue chan extent   // in-flight extents; non-nil only during a parallel compute phase
	done  chan struct{} // closed when the drain goroutine exits

	cnt   []int32 // counting-sort buckets, one-shifted like colInbox.off (len owned+1)
	mailN int
	in    inMetrics

	// Per-sender send accounting, folded into the senders' StepMetrics at
	// the barrier: assembly prices extents receiver-side, but the traffic is
	// charged to the sending worker exactly as the BSP accountSent pass
	// does.
	sentMsgs  []int64
	sentBytes []int64

	// Watchdog degradation state. When a sender times out waiting on this
	// assembler's queue it flips degraded and assembles its own extents
	// inline from then on (this superstep); mu then serializes every
	// assembleExtent touching this assembler — sender-inline and drain-
	// goroutine alike. Assembly is commutative integer accumulation, so the
	// serialization order does not affect results; see flushExtent.
	mu       sync.Mutex
	degraded atomic.Bool
}

func newInboxAsm(nw, owned int) *inboxAsm {
	return &inboxAsm{
		cnt:       make([]int32, owned+1),
		sentMsgs:  make([]int64, nw),
		sentBytes: make([]int64, nw),
	}
}

func (a *inboxAsm) reset() {
	for i := range a.cnt {
		a.cnt[i] = 0
	}
	for i := range a.sentMsgs {
		a.sentMsgs[i] = 0
		a.sentBytes[i] = 0
	}
	a.mailN = 0
	a.in = inMetrics{}
	a.degraded.Store(false)
}

// startAssembly resets every receiver's assembler and, under Parallel
// execution, starts one drain goroutine per receiver. Must run before any
// compute can flush an extent.
func (e *Engine[V, M]) startAssembly() {
	parallel := e.cfg.Parallel && e.cfg.NumWorkers > 1
	for r := range e.asm {
		a := e.asm[r]
		a.reset()
		if parallel {
			a.queue = make(chan extent, e.pipeDepth)
			a.done = make(chan struct{})
			go func(r int, a *inboxAsm) {
				for ext := range a.queue {
					if e.asmStall != nil {
						e.asmStall(r)
					}
					e.assembleGuarded(a, r, ext)
				}
				close(a.done)
			}(r, a)
		}
	}
}

// finishAssembly drains the in-flight extents: queues close and the drain
// goroutines are joined, establishing the happens-before edge the barrier's
// reads of assembler state rely on. A no-op in serial runs (assembly already
// happened inline).
func (e *Engine[V, M]) finishAssembly() {
	for _, a := range e.asm {
		if a.queue != nil {
			close(a.queue)
		}
	}
	for _, a := range e.asm {
		if a.queue != nil {
			<-a.done
			a.queue, a.done = nil, nil
		}
	}
}

// sealChunk seals every receiver's rows appended since the previous seal and
// eagerly flushes the extents to the receivers' assemblers. Sealing is pure
// bookkeeping over the BSP send buffers — row watermarks plus captured
// column views — so the rows themselves (including in-place combiner merges
// into already-sealed rows, which never change a row's dst, kind or length)
// are produced exactly as on the BSP plane.
func (w *worker[V, M]) sealChunk() {
	e := w.engine
	if !e.pipelined {
		return
	}
	cur := e.colCur[w.id]
	for r, b := range cur {
		lo, hi := w.sealedRows[r], len(b.dsts)
		if hi == lo {
			continue
		}
		w.sealedRows[r] = hi
		ext := extent{
			sender: w.id,
			dsts:   b.dsts[lo:hi:hi],
			kinds:  b.kinds[lo:hi:hi],
			lens:   b.lens[lo:hi:hi],
		}
		if a := e.asm[r]; a.queue != nil {
			w.flushExtent(a, r, ext)
		} else {
			e.assembleExtent(r, ext)
		}
	}
}

// flushExtent hands a sealed extent to receiver r's assembler. The fast
// path is a non-blocking queue send; when the assembler is PipelineDepth
// extents behind, the sender blocks — bounded by the watchdog. A watchdog
// trip marks the assembler degraded: this extent and every later one this
// sender seals for it are assembled inline under the assembler's mutex,
// so a stalled (or starved) drain goroutine degrades the pipeline to
// BSP-like inline assembly instead of hanging the run. Inline and drain
// assembly interleave arbitrarily, which cannot affect results: an extent
// is assembled exactly once, and assembleExtent only does commutative
// integer accumulation into per-receiver state.
func (w *worker[V, M]) flushExtent(a *inboxAsm, r int, ext extent) {
	e := w.engine
	if !a.degraded.Load() {
		if e.watchdog <= 0 {
			a.queue <- ext // blocks when the receiver is PipelineDepth extents behind
			return
		}
		select {
		case a.queue <- ext:
			return
		default:
		}
		if !e.drainOverdue(w, a, r, ext) {
			return
		}
		a.degraded.Store(true)
		atomic.AddInt64(&e.watchdogTrips, 1)
	}
	e.assembleGuarded(a, r, ext)
}

// drainOverdue is the watchdog's trip source for a sender whose extent found
// receiver r's queue full: it either queues ext and reports false, or
// reports true without queueing it once the drain has been overdue for the
// watchdog period. The wdOverdue seam replaces the timer, so tests decide
// exactly when a drain counts as overdue.
func (e *Engine[V, M]) drainOverdue(w *worker[V, M], a *inboxAsm, r int, ext extent) bool {
	if e.wdOverdue != nil {
		if e.wdOverdue(r) {
			return true
		}
		a.queue <- ext
		return false
	}
	if w.wdTimer == nil {
		w.wdTimer = time.NewTimer(e.watchdog)
	} else {
		w.wdTimer.Reset(e.watchdog)
	}
	select {
	case a.queue <- ext:
		w.wdTimer.Stop()
		return false
	case <-w.wdTimer.C:
		return true
	}
}

// assembleGuarded assembles one extent, taking the assembler's mutex when
// the watchdog is armed (the only case where a degraded sender can be
// assembling concurrently with the drain goroutine). With the watchdog
// disabled the lock is skipped — single-owner assembly, as before.
func (e *Engine[V, M]) assembleGuarded(a *inboxAsm, r int, ext extent) {
	if e.watchdog > 0 {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	e.assembleExtent(r, ext)
}

// WatchdogTrips reports how many times a pipelined sender timed out on a
// backpressured assembler and degraded it to inline assembly.
func (e *Engine[V, M]) WatchdogTrips() int { return int(atomic.LoadInt64(&e.watchdogTrips)) }

// sealTail flushes the worker's final partial chunk at the end of its
// compute phase; a no-op outside the pipelined plane.
func (w *worker[V, M]) sealTail() { w.sealChunk() }

// assembleExtent is the background inbox assembly for one sealed extent: one
// pass bucketing rows into the counting sort's per-vertex counts, plus wire
// pricing with run-length compression over rows sharing a (kind, length)
// shape. It reads only the extent's captured dst/kind/len views — immutable
// after append — so the sender's concurrent appends and combiner merges
// (which rewrite counts and payload extents only) cannot race with it.
func (e *Engine[V, M]) assembleExtent(r int, ext extent) {
	a := e.asm[r]
	cnt := a.cnt
	mail := 0
	for _, dst := range ext.dsts {
		if dst < 0 {
			mail++
		} else {
			cnt[e.localIdx[dst]+1]++
		}
	}
	a.mailN += mail
	var bytes int64
	n := len(ext.dsts)
	for i := 0; i < n; {
		k, l := ext.kinds[i], ext.lens[i]
		j := i + 1
		for j < n && ext.kinds[j] == k && ext.lens[j] == l {
			j++
		}
		bytes += int64(j-i) * int64(e.colBytes(k, int(l)))
		i = j
	}
	a.sentMsgs[ext.sender] += int64(n)
	a.sentBytes[ext.sender] += bytes
	a.in.msgs += int64(n)
	a.in.bytes += bytes
}

// foldAssemblyMetrics charges each sender's assembled traffic to its current
// StepMetrics entry (splitting the remote share, as accountSent does) and
// stashes each receiver's totals for the next superstep's compute. Runs
// serially at the barrier, after delivery.
func (e *Engine[V, M]) foldAssemblyMetrics() {
	nw := e.cfg.NumWorkers
	for r := 0; r < nw; r++ {
		a := e.asm[r]
		for s := 0; s < nw; s++ {
			m := e.workers[s].m
			m.MessagesSent += a.sentMsgs[s]
			m.BytesSent += a.sentBytes[s]
			if s != r {
				m.RemoteMessagesSent += a.sentMsgs[s]
				m.RemoteBytesSent += a.sentBytes[s]
			}
		}
		e.pendIn[r] = a.in
	}
}

// deliverPipelined builds receiver r's CSR inbox and mailbox from the
// assembled state: prefix-sum the pre-bucketed counts, fill the mailbox in
// sender-major order, then scatter the vertex rows with the ownership-order
// merge — ascending vertex id, each id drained from its owning sender's
// buffer — which yields the exact globally-ascending-source order of the BSP
// merge without its per-row head scan. Payloads stay zero-copy views into
// the sender arenas.
func (e *Engine[V, M]) deliverPipelined(r int) {
	a := e.asm[r]
	in := &e.colIn[r]
	nw := e.cfg.NumWorkers

	off := a.cnt
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// The prefix-summed buckets become the inbox CSR; the previous offset
	// array becomes next superstep's (re-zeroed) bucket scratch.
	a.cnt, in.off = in.off, off
	total := int(off[len(off)-1])
	in.cols.resize(total)
	copy(in.next, off[:len(in.next)])

	e.fillColMail(r, a.mailN)
	if total == 0 {
		return
	}

	cur, heads := e.mergeCur[r], e.mergeHeads[r]
	live, single := 0, -1
	loSrc := mergeDone
	for s := 0; s < nw; s++ {
		b := e.colCur[s][r]
		cur[s] = skipMail(b.dsts, 0)
		heads[s] = mergeDone
		if cur[s] < len(b.dsts) {
			heads[s] = b.srcs[cur[s]]
			live++
			single = s
			if heads[s] < loSrc {
				loSrc = heads[s]
			}
		}
	}
	if live == 1 {
		// Single live sender: its buffer order already is the global order.
		b := e.colCur[single][r]
		for i := cur[single]; i < len(b.dsts); i++ {
			if dst := b.dsts[i]; dst >= 0 {
				e.scatterColRow(in, b, i, dst)
			}
		}
		return
	}
	n := int32(len(e.workerOf))
	misses := 0
	for v := loSrc; live > 0 && v >= 0 && v < n; {
		s := int(e.workerOf[v])
		if heads[s] != v {
			v++
			misses++
			// Sparse superstep: after a worker-count's worth of consecutive
			// sourceless ids, stop walking and jump straight to the lowest
			// live head. Dense supersteps never trigger this (the next
			// source is nearby), so the hot path stays a single increment;
			// converged frontiers pay O(rows + runs·NumWorkers) instead of
			// rescanning every vertex id. Under the src contract live heads
			// are always at or ahead of the scan point, so a head behind it
			// is a contract violation — fall through to the stall panic.
			if misses >= nw {
				misses = 0
				nv := mergeDone
				for _, h := range heads {
					if h < nv {
						nv = h
					}
				}
				if nv < v {
					break
				}
				v = nv
			}
			continue
		}
		misses = 0
		b := e.colCur[s][r]
		i := cur[s]
		for {
			if i >= len(b.dsts) {
				heads[s] = mergeDone
				live--
				break
			}
			dst := b.dsts[i]
			if dst < 0 {
				i++
				continue
			}
			if src := b.srcs[i]; src != v {
				heads[s] = src
				break
			}
			e.scatterColRow(in, b, i, dst)
			i++
		}
		cur[s] = i
		v++
	}
	if live > 0 {
		panic("pregel: pipelined delivery stalled — a program sent columnar messages " +
			"violating the src contract (src must be the computing vertex's id); " +
			"run it on the BSP plane or fix its sends")
	}
}
