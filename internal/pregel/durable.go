package pregel

// Durable checkpoints: the bridge between the engine's in-memory snapshots
// and the internal/checkpoint epoch store. The in-memory snapshot stays the
// recovery fast path (simulated faults roll back without touching disk);
// attaching a Sink additionally persists every snapshot as a checksummed
// epoch file, and Resume rebuilds engine state from the newest valid epoch
// so a killed process restarts mid-run.
//
// Persistence never blocks the supersteps it protects: takeCheckpoint
// captures the immutable in-memory snapshot synchronously (the same deep
// copies the fast path needs anyway) and hands it to a single background
// persister goroutine that encodes and writes it while the next supersteps
// compute. A snapshot is never written after capture (the invariant the in-memory
// restore path already relies on), which is what makes the background
// encode race-free. The persist queue holds one snapshot, so at most two
// epochs are outstanding and a fast-checkpointing run backpressures instead
// of ballooning.

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"inferturbo/internal/checkpoint"
)

// SnapshotCodec encodes vertex values and boxed messages for the durable
// sink. Encoding must be bit-exact: a decoded value must reproduce the
// encoded one exactly (float32 fields round-trip through their IEEE-754
// bits — see checkpoint.AppendF32s), or crash-resume loses the engine's
// bit-identity guarantee. Msg methods are only exercised on the boxed
// message plane; columnar snapshots carry payload arenas, not M values.
type SnapshotCodec[V, M any] interface {
	// EncodeValues appends the encoding to dst and returns the extended
	// slice (append-style, like encoding/binary's Append* helpers), so the
	// persister can reuse one encode arena across epochs.
	EncodeValues(dst []byte, vals []V) ([]byte, error)
	// DecodeValues decodes into the engine's value slab (len fixed at
	// NumVertices).
	DecodeValues(data []byte, into []V) error
	EncodeMsgs(dst []byte, msgs []M) ([]byte, error)
	DecodeMsgs(data []byte) ([]M, error)
}

// ProgramDiskStater extends ProgramStater with byte encoding of the
// program-owned snapshot, so durable checkpoints can carry a batch
// program's state slabs. Programs whose state lives entirely in vertex
// values need neither interface. EncodeProgState is append-style, like
// SnapshotCodec.
type ProgramDiskStater interface {
	ProgramStater
	EncodeProgState(dst []byte, snap any) ([]byte, error)
	DecodeProgState(data []byte) (any, error)
}

// CheckpointStats aggregates a run's checkpoint activity.
type CheckpointStats struct {
	Checkpoints int   // snapshots committed (including the superstep-0 seed, when taken)
	SnapshotNs  int64 // wall time capturing in-memory snapshots (blocks the run)
	PersistNs   int64 // wall time encoding + writing epochs (overlaps compute)
	// Bytes counts encoded segment bytes handed to the sink. The superstep-0
	// seed — captured only when a fault plan is armed, as the in-process
	// rollback target — stays in memory only (resuming from it equals a cold
	// start), so it contributes to Checkpoints but never to Bytes.
	Bytes int64
}

// SetSink attaches a durable checkpoint sink. Every in-memory checkpoint
// (cadence: Config.CheckpointEvery) is additionally encoded through codec
// and persisted via sink by a background goroutine. Must be called before
// Run; the engine does not take ownership of the sink's directory lifecycle.
func (e *Engine[V, M]) SetSink(sink checkpoint.Sink, codec SnapshotCodec[V, M]) {
	if sink != nil && codec == nil {
		panic("pregel: SetSink requires a codec")
	}
	e.sink = sink
	e.codec = codec
}

// Resume loads the newest valid epoch from the sink and reinstalls it as
// both the engine's live state and its recovery point; the next Run starts
// at the checkpointed superstep. Returns false (and leaves the engine
// untouched) when the sink holds nothing recoverable — callers then run
// from scratch. Metrics of a resumed run cover only the resumed supersteps.
func (e *Engine[V, M]) Resume() (bool, error) {
	if e.sink == nil {
		return false, errors.New("pregel: Resume without a sink (call SetSink first)")
	}
	step, segs, found, err := e.sink.Load()
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	cp, err := e.decodeSnapshot(step, segs)
	if err != nil {
		return false, err
	}
	cp.ioDone = 1 // never enqueued; eligible for recycling once displaced
	e.checkpoint = cp
	e.restoreCheckpoint()
	e.startStep = cp.step
	e.resumed = true
	return true, nil
}

// CheckpointStats reports the run's checkpoint activity. Valid after Run
// (the persister's totals are published by its join).
func (e *Engine[V, M]) CheckpointStats() CheckpointStats {
	return CheckpointStats{
		Checkpoints: e.ckptCount,
		SnapshotNs:  e.ckptWallNs,
		PersistNs:   atomic.LoadInt64(&e.persistNs),
		Bytes:       atomic.LoadInt64(&e.ckptBytes),
	}
}

// startPersister launches the background persist goroutine; stopPersister
// joins it and surfaces the first persist failure. enqueuePersist blocks
// only when a previous epoch is still being written (queue capacity 1).
func (e *Engine[V, M]) startPersister() {
	e.persistCh = make(chan *snapshot[V, M], 1)
	e.persistDone = make(chan struct{})
	go func() {
		for cp := range e.persistCh {
			e.persistSnapshot(cp)
			e.persistWG.Done()
		}
		close(e.persistDone)
	}()
}

func (e *Engine[V, M]) stopPersister() error {
	close(e.persistCh)
	<-e.persistDone
	e.persistCh = nil
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	return e.persistFailure
}

func (e *Engine[V, M]) enqueuePersist(cp *snapshot[V, M]) {
	e.persistWG.Add(1)
	e.persistCh <- cp
}

// drainPersist blocks until every enqueued snapshot is durably written —
// the pre-hook barrier that makes SuperstepHook-driven process kills
// deterministic about which epochs exist.
func (e *Engine[V, M]) drainPersist() { e.persistWG.Wait() }

func (e *Engine[V, M]) persistSnapshot(cp *snapshot[V, M]) {
	// Publish completion regardless of outcome so takeCheckpoint can recycle
	// this snapshot's slabs after it is displaced.
	defer atomic.StoreUint32(&cp.ioDone, 1)
	e.persistMu.Lock()
	failed := e.persistFailure != nil
	e.persistMu.Unlock()
	if failed {
		// Durability already degraded; don't burn IO on further epochs. The
		// in-memory recovery path is unaffected and the error surfaces at
		// Run's return.
		return
	}
	t0 := time.Now()
	segs, err := e.encodeSnapshot(cp)
	if err == nil {
		err = e.sink.Save(cp.step, segs)
	}
	atomic.AddInt64(&e.persistNs, time.Since(t0).Nanoseconds())
	if err != nil {
		e.persistMu.Lock()
		e.persistFailure = err
		e.persistMu.Unlock()
		return
	}
	var bytes int64
	for _, sg := range segs {
		bytes += int64(len(sg.Data))
	}
	atomic.AddInt64(&e.ckptBytes, bytes)
}

// Segment names of the epoch layout. The meta segment pins the engine shape
// (plane, workers, vertex count) so a resume against a mismatched
// configuration fails loudly instead of corrupting state.
const (
	segMeta    = "meta"
	segActive  = "active"
	segValues  = "values"
	segAgg     = "agg"
	segColIn   = "colin"
	segColMail = "colmail"
	segBoxOff  = "boxoff"
	segBoxMsgs = "boxmsgs"
	segBoxMail = "boxmail"
	segProg    = "prog"
)

// snapshotVersion leads the meta segment; decodeSnapshot refuses epochs of
// any other version.
const snapshotVersion = 2

// segArena builds an epoch's segments inside one reusable buffer. Appends
// may reallocate the buffer, so segment boundaries are tracked as end
// offsets and re-sliced into views only once the epoch is complete.
type segArena struct {
	buf   []byte
	names []string
	ends  []int
}

func (a *segArena) reset() {
	a.buf = a.buf[:0]
	a.names = a.names[:0]
	a.ends = a.ends[:0]
}

// seal marks everything appended since the previous seal as segment name.
func (a *segArena) seal(name string) {
	a.names = append(a.names, name)
	a.ends = append(a.ends, len(a.buf))
}

// grow reserves room for at least n more bytes in one allocation, so the
// epoch's appends don't churn through reallocation doubling.
func (a *segArena) grow(n int) {
	if cap(a.buf)-len(a.buf) < n {
		nb := make([]byte, len(a.buf), len(a.buf)+n)
		copy(nb, a.buf)
		a.buf = nb
	}
}

func (a *segArena) segments(dst []checkpoint.Segment) []checkpoint.Segment {
	dst = dst[:0]
	start := 0
	for i, name := range a.names {
		dst = append(dst, checkpoint.Segment{Name: name, Data: a.buf[start:a.ends[i]]})
		start = a.ends[i]
	}
	return dst
}

// encodeSnapshot serializes one immutable snapshot into named segments, all
// carved from the engine's reusable encode arena — steady-state epochs
// encode without allocating. Runs on the persister goroutine: it reads only
// the snapshot (immutable after capture), engine fields fixed at
// construction, and the persister-only scratch buffers. The returned
// segments are views into the arena, valid until the next encodeSnapshot.
func (e *Engine[V, M]) encodeSnapshot(cp *snapshot[V, M]) ([]checkpoint.Segment, error) {
	nw := e.cfg.NumWorkers
	a := &e.encArena
	a.reset()
	// Size the arena from the known-size bulk (the inbox arenas dominate an
	// epoch) plus slack for the codec-encoded values and program state.
	est := 4096 + len(cp.active) + 16*len(cp.values)
	if e.columnar {
		for r := 0; r < nw; r++ {
			est += colSnapSize(cp.colIn[r]) + colSnapSize(cp.colMail[r])
		}
	}
	a.grow(est + est/8)
	b := a.buf
	b = checkpoint.AppendU32(b, snapshotVersion)
	b = checkpoint.AppendBools(b, []bool{e.columnar, cp.hasProg, cp.aggPrev != nil})
	b = checkpoint.AppendU32(b, uint32(nw))
	b = checkpoint.AppendU64(b, uint64(len(cp.values)))
	b = checkpoint.AppendI64(b, int64(cp.inTotal))
	b = checkpoint.AppendI64(b, int64(cp.mailTotal))
	a.buf = b
	a.seal(segMeta)

	a.buf = checkpoint.AppendBools(a.buf, cp.active)
	a.seal(segActive)

	vals, err := e.codec.EncodeValues(a.buf, cp.values)
	if err != nil {
		return nil, fmt.Errorf("pregel: encode values: %w", err)
	}
	a.buf = vals
	a.seal(segValues)

	if cp.aggPrev != nil {
		keys := make([]string, 0, len(cp.aggPrev))
		for k := range cp.aggPrev {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b := a.buf
		b = checkpoint.AppendU64(b, uint64(len(keys)))
		for _, k := range keys {
			b = checkpoint.AppendString(b, k)
			b = checkpoint.AppendF32s(b, cp.aggPrev[k])
		}
		a.buf = b
		a.seal(segAgg)
	}

	if e.columnar {
		b := a.buf
		for r := 0; r < nw; r++ {
			b = appendColSnap(b, cp.colIn[r])
		}
		a.buf = b
		a.seal(segColIn)
		b = a.buf
		for r := 0; r < nw; r++ {
			b = appendColSnap(b, cp.colMail[r])
		}
		a.buf = b
		a.seal(segColMail)
	} else {
		b := a.buf
		for r := 0; r < nw; r++ {
			b = checkpoint.AppendI32s(b, cp.boxOff[r])
		}
		a.buf = b
		a.seal(segBoxOff)
		// Per-worker message blobs nest length-prefixed inside the segment,
		// so each is encoded into a reused scratch first.
		b = a.buf
		for r := 0; r < nw; r++ {
			if e.boxScratch, err = e.codec.EncodeMsgs(e.boxScratch[:0], cp.boxMsgs[r]); err != nil {
				return nil, fmt.Errorf("pregel: encode inbox msgs: %w", err)
			}
			b = checkpoint.AppendBytes(b, e.boxScratch)
		}
		a.buf = b
		a.seal(segBoxMsgs)
		b = a.buf
		for r := 0; r < nw; r++ {
			if e.boxScratch, err = e.codec.EncodeMsgs(e.boxScratch[:0], cp.boxMail[r]); err != nil {
				return nil, fmt.Errorf("pregel: encode worker mail: %w", err)
			}
			b = checkpoint.AppendBytes(b, e.boxScratch)
		}
		a.buf = b
		a.seal(segBoxMail)
	}

	if cp.hasProg {
		ds, ok := e.prog.(ProgramDiskStater)
		if !ok {
			return nil, errors.New("pregel: program keeps state (ProgramStater) but does not implement ProgramDiskStater; durable checkpoints cannot carry it")
		}
		pb, err := ds.EncodeProgState(a.buf, cp.progState)
		if err != nil {
			return nil, fmt.Errorf("pregel: encode program state: %w", err)
		}
		a.buf = pb
		a.seal(segProg)
	}
	e.encSegs = a.segments(e.encSegs)
	return e.encSegs, nil
}

// colSnapSize is appendColSnap's output size for s plus its length words.
func colSnapSize(s colSnap) int {
	return 48 + 4*len(s.off) + len(s.kinds) + 4*len(s.srcs) + 4*len(s.counts) +
		8*len(s.payOff) + 4*len(s.arena)
}

func appendColSnap(b []byte, s colSnap) []byte {
	b = checkpoint.AppendI32s(b, s.off)
	b = checkpoint.AppendBytes(b, s.kinds)
	b = checkpoint.AppendI32s(b, s.srcs)
	b = checkpoint.AppendI32s(b, s.counts)
	// Same wire shape as AppendI64s, without materializing an []int64.
	b = checkpoint.AppendU64(b, uint64(len(s.payOff)))
	for _, v := range s.payOff {
		b = checkpoint.AppendI64(b, int64(v))
	}
	return checkpoint.AppendF32s(b, s.arena)
}

func readColSnap(r *checkpoint.Reader) colSnap {
	var s colSnap
	s.off = r.I32s()
	s.kinds = append([]uint8(nil), r.Bytes()...)
	s.srcs = r.I32s()
	s.counts = r.I32s()
	po := r.I64s()
	s.payOff = make([]int, len(po))
	for i, v := range po {
		s.payOff[i] = int(v)
	}
	s.arena = r.F32s()
	return s
}

// validateColSnap checks a decoded column snapshot's internal consistency —
// the invariants snapColsInto guarantees on capture — so a CRC-valid but
// semantically corrupt epoch fails the resume with an error instead of
// panicking later inside restoreCols or the delivery barrier. wantOff > 0
// additionally pins the CSR offsets: monotone from 0 to the message count,
// so every Batch view sliced from them stays in bounds.
func validateColSnap(s colSnap, wantOff int) error {
	n := len(s.srcs)
	if len(s.kinds) != n || len(s.counts) != n {
		return fmt.Errorf("column lengths disagree (kinds=%d srcs=%d counts=%d)", len(s.kinds), n, len(s.counts))
	}
	if len(s.payOff) != n+1 {
		return fmt.Errorf("payload offsets len %d, want %d", len(s.payOff), n+1)
	}
	if s.payOff[0] != 0 || s.payOff[n] != len(s.arena) {
		return fmt.Errorf("payload offsets span [%d,%d], arena holds %d", s.payOff[0], s.payOff[n], len(s.arena))
	}
	for i := 0; i < n; i++ {
		if s.payOff[i] > s.payOff[i+1] {
			return fmt.Errorf("payload offsets regress at message %d", i)
		}
	}
	if wantOff > 0 {
		if len(s.off) != wantOff {
			return fmt.Errorf("CSR has %d offsets, want %d", len(s.off), wantOff)
		}
		if s.off[0] != 0 || int(s.off[wantOff-1]) != n {
			return fmt.Errorf("CSR spans [%d,%d], inbox holds %d messages", s.off[0], s.off[wantOff-1], n)
		}
		for i := 0; i+1 < wantOff; i++ {
			if s.off[i] > s.off[i+1] {
				return fmt.Errorf("CSR offsets regress at slot %d", i)
			}
		}
	}
	return nil
}

// decodeSnapshot rebuilds a snapshot from epoch segments, validating shape
// against the engine's configuration before any state is touched.
func (e *Engine[V, M]) decodeSnapshot(step int, segs []checkpoint.Segment) (*snapshot[V, M], error) {
	bySeg := make(map[string][]byte, len(segs))
	for _, sg := range segs {
		bySeg[sg.Name] = sg.Data
	}
	need := func(name string) (*checkpoint.Reader, error) {
		b, ok := bySeg[name]
		if !ok {
			return nil, fmt.Errorf("pregel: checkpoint missing segment %q", name)
		}
		return checkpoint.NewReader(b), nil
	}

	mr, err := need(segMeta)
	if err != nil {
		return nil, err
	}
	// The version leads the meta segment and is checked before the rest is
	// parsed: other versions lay the meta out differently.
	if version := mr.U32(); mr.Err() == nil && version != snapshotVersion {
		return nil, fmt.Errorf("pregel: checkpoint version %d, engine speaks %d", version, snapshotVersion)
	}
	flags := mr.Bools()
	nw := int(mr.U32())
	nvert := int(mr.U64())
	inTotal := int(mr.I64())
	mailTotal := int(mr.I64())
	if mr.Err() != nil || len(flags) != 3 || nw < 0 || nvert < 0 || inTotal < 0 || mailTotal < 0 {
		return nil, errors.New("pregel: checkpoint meta segment malformed")
	}
	columnar, hasProg, hasAgg := flags[0], flags[1], flags[2]
	if columnar != e.columnar || nw != e.cfg.NumWorkers || nvert != len(e.values) {
		return nil, fmt.Errorf("pregel: checkpoint shape (columnar=%v workers=%d vertices=%d) does not match engine (columnar=%v workers=%d vertices=%d)",
			columnar, nw, nvert, e.columnar, e.cfg.NumWorkers, len(e.values))
	}

	cp := &snapshot[V, M]{step: step, inTotal: inTotal, mailTotal: mailTotal, hasProg: hasProg}

	ar, err := need(segActive)
	if err != nil {
		return nil, err
	}
	cp.active = ar.Bools()
	if ar.Err() != nil || len(cp.active) != nvert {
		return nil, errors.New("pregel: checkpoint active segment malformed")
	}

	vb, ok := bySeg[segValues]
	if !ok {
		return nil, fmt.Errorf("pregel: checkpoint missing segment %q", segValues)
	}
	cp.values = make([]V, nvert)
	if err := e.codec.DecodeValues(vb, cp.values); err != nil {
		return nil, fmt.Errorf("pregel: decode values: %w", err)
	}

	if hasAgg {
		gr, err := need(segAgg)
		if err != nil {
			return nil, err
		}
		n := int(gr.U64())
		agg := make(map[string][]float32, n)
		for i := 0; i < n && gr.Err() == nil; i++ {
			k := gr.String()
			agg[k] = gr.F32s()
		}
		if gr.Err() != nil {
			return nil, errors.New("pregel: checkpoint aggregator segment malformed")
		}
		cp.aggPrev = agg
	}

	if e.columnar {
		ir, err := need(segColIn)
		if err != nil {
			return nil, err
		}
		mrd, err := need(segColMail)
		if err != nil {
			return nil, err
		}
		cp.colIn = make([]colSnap, nw)
		cp.colMail = make([]colSnap, nw)
		for r := 0; r < nw; r++ {
			cp.colIn[r] = readColSnap(ir)
			cp.colMail[r] = readColSnap(mrd)
		}
		if ir.Err() != nil || mrd.Err() != nil {
			return nil, errors.New("pregel: checkpoint columnar segments malformed")
		}
		for r := 0; r < nw; r++ {
			if err := validateColSnap(cp.colIn[r], len(e.colIn[r].off)); err != nil {
				return nil, fmt.Errorf("pregel: checkpoint inbox for worker %d malformed: %w", r, err)
			}
			if err := validateColSnap(cp.colMail[r], 0); err != nil {
				return nil, fmt.Errorf("pregel: checkpoint worker mail for worker %d malformed: %w", r, err)
			}
		}
	} else {
		or, err := need(segBoxOff)
		if err != nil {
			return nil, err
		}
		br, err := need(segBoxMsgs)
		if err != nil {
			return nil, err
		}
		wr, err := need(segBoxMail)
		if err != nil {
			return nil, err
		}
		cp.boxOff = make([][]int32, nw)
		cp.boxMsgs = make([][]M, nw)
		cp.boxMail = make([][]M, nw)
		for r := 0; r < nw; r++ {
			cp.boxOff[r] = or.I32s()
			if want := len(e.boxIn[r].off); len(cp.boxOff[r]) != want {
				return nil, fmt.Errorf("pregel: checkpoint inbox CSR for worker %d has %d offsets, engine expects %d", r, len(cp.boxOff[r]), want)
			}
			mb := br.Bytes()
			if cp.boxMsgs[r], err = e.codec.DecodeMsgs(mb); err != nil {
				return nil, fmt.Errorf("pregel: decode inbox msgs: %w", err)
			}
			wb := wr.Bytes()
			if cp.boxMail[r], err = e.codec.DecodeMsgs(wb); err != nil {
				return nil, fmt.Errorf("pregel: decode worker mail: %w", err)
			}
		}
		if or.Err() != nil || br.Err() != nil || wr.Err() != nil {
			return nil, errors.New("pregel: checkpoint boxed segments malformed")
		}
	}

	if hasProg {
		ds, ok := e.prog.(ProgramDiskStater)
		if !ok {
			return nil, errors.New("pregel: checkpoint carries program state but the program does not implement ProgramDiskStater")
		}
		pb, okSeg := bySeg[segProg]
		if !okSeg {
			return nil, fmt.Errorf("pregel: checkpoint missing segment %q", segProg)
		}
		if cp.progState, err = ds.DecodeProgState(pb); err != nil {
			return nil, fmt.Errorf("pregel: decode program state: %w", err)
		}
	}
	return cp, nil
}
