package inference

// Durable incremental sessions: the resident-state half of the crash-safety
// story. The serving layer's mutation WAL makes acknowledged deltas durable;
// this file makes the state they were applied against durable, so a killed
// server restarts with "load slabs, replay unconsumed deltas as one delta
// pass" instead of a full re-prime.
//
// After every refresh pass that ran compute, the session deep-copies its
// per-layer slabs (and emitted wire-message slabs) into recycled capture
// buffers and hands them — together with the current immutable graph
// snapshot and the replay mark — to a background persister goroutine, which
// encodes them as one checkpoint epoch. The copy is the only cost on the
// refresh path; encoding and disk IO overlap with serving, and no refresh
// ever waits on disk. The hand-off is a latest-wins mailbox over two capture
// buffer sets: while one epoch is writing, the next refresh captures into the
// other set and leaves it in the mailbox; a refresh that finds an unstarted
// job still there takes it back and captures over it. Every resident state
// is therefore either persisted or superseded by a newer one that is, and
// memory is bounded at the resident slabs plus two captures.
//
// The replay mark is the WAL dedup cursor: the highest mutation sequence
// number whose effects the persisted slabs contain. ResumeSession returns it
// so the serving layer replays only WAL records above it — a crash between
// slab-persist and WAL-truncate therefore re-stages some already-truncated
// records' worth of nothing, never double-applies a batch.
//
// Bit-identity across the crash: slab floats round-trip through their
// IEEE-754 bit patterns (checkpoint.AppendF32s), the graph round-trips
// through graph.AppendEncoding (the same wire helpers, features included),
// and the delta pass that replays the unconsumed mutations is the same
// bitwise-exact engine path a never-crashed process would have run — so
// /v1/logits after resume is byte-identical to the oracle.

import (
	"fmt"
	"sync/atomic"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// sessionMetaVersion 3 stores the graph segment in graph.AppendEncoding's
// format and a message slab for every emitting layer (GAT's included, whose
// rows are [z | source scores]). Older epochs — version 1 (gob graph) and
// version 2 (message slabs for degree-scaled layers only) — are refused,
// never cold-started past, because their WAL prefix may already be
// truncated.
const sessionMetaVersion = 3

// SessionDurableStats exposes the persister's observables for /v1/stats.
type SessionDurableStats struct {
	Epochs       int64 // epochs durably written by this process
	Failures     int64 // persist attempts aborted or failed
	LastWallNs   int64 // wall time of the most recent successful persist
	BytesWritten int64 // cumulative epoch bytes on disk
	Superseded   int64 // captured states a newer capture replaced before their write began
}

// sessionPersistJob is one captured slab set in flight to disk.
type sessionPersistJob struct {
	g      *graph.Graph // immutable snapshot; never copied
	layers []*tensor.Matrix
	msgs   []*tensor.Matrix
	mark   uint64
}

// sessionDurable is the session's background persistence machinery.
type sessionDurable struct {
	store     *checkpoint.Store
	beginHook func(mark uint64) error
	doneHook  func(epoch int, mark uint64, err error)

	// mailbox holds the newest captured state whose write has not begun
	// (capacity 1); free holds the idle capture buffer sets (capacity 2: both
	// sets are idle before the first persist). The refresh goroutine is the
	// only sender on mailbox and the only receiver on free.
	mailbox chan *sessionPersistJob
	free    chan *sessionPersistJob
	done    chan struct{}

	epochs     atomic.Int64
	failures   atomic.Int64
	lastNs     atomic.Int64
	superseded atomic.Int64
	// bytes mirrors the store's cumulative byte count: the Store is
	// persister-goroutine-private, so stats readers take this atomic instead.
	bytes atomic.Int64

	// Persister-goroutine encode buffers, reused across epochs so a
	// steady-state epoch (same shapes as the last) allocates nothing
	// epoch-sized. Reusing them is safe only because checkpoint.Store.Save
	// keeps no reference to segment bytes after it returns. slabs[k-1]
	// holds layer k and slabs[L+k] message slab k; names match them.
	meta  []byte
	graph []byte
	slabs [][]byte
	names []string
	emits []bool
	segs  []checkpoint.Segment
}

// initDurable wires the persister when SessionDir is set. Called by
// NewSession (and so by ResumeSession through it).
func (s *Session) initDurable() error {
	if s.opts.SessionDir == "" {
		return nil
	}
	st, err := checkpoint.NewStore(s.opts.SessionDir)
	if err != nil {
		return err
	}
	st.Sync = s.opts.CheckpointSync
	L := s.model.NumLayers()
	d := &sessionDurable{
		store:     st,
		beginHook: s.opts.SessionPersistBeginHook,
		doneHook:  s.opts.SessionPersistHook,
		mailbox:   make(chan *sessionPersistJob, 1),
		free:      make(chan *sessionPersistJob, 2),
		done:      make(chan struct{}),
		slabs:     make([][]byte, 2*L),
		names:     make([]string, 2*L),
		emits:     make([]bool, L),
	}
	for k := 0; k < L; k++ {
		d.names[k] = layerSegment(k + 1)
		d.names[L+k] = msgsSegment(k)
	}
	d.free <- &sessionPersistJob{}
	d.free <- &sessionPersistJob{}
	go d.run(s.model)
	s.dur = d
	return nil
}

// Durable reports whether the session persists resident state.
func (s *Session) Durable() bool { return s.dur != nil }

// ReplayMark returns the highest mutation sequence number the session's
// state (resident or, after persistence, durable) accounts for.
func (s *Session) ReplayMark() uint64 { return s.replayMark }

// SetReplayMark advances the replay mark. The serving layer calls it under
// its refresh lock after draining staged batches into the session, so the
// epoch persisted by the following Refresh records exactly the WAL prefix it
// consumed. Never call it mid-Refresh.
func (s *Session) SetReplayMark(seq uint64) {
	if seq > s.replayMark {
		s.replayMark = seq
	}
}

// DurableStats snapshots the persister counters (zero when not durable).
func (s *Session) DurableStats() SessionDurableStats {
	if s.dur == nil {
		return SessionDurableStats{}
	}
	return SessionDurableStats{
		Epochs:       s.dur.epochs.Load(),
		Failures:     s.dur.failures.Load(),
		LastWallNs:   s.dur.lastNs.Load(),
		BytesWritten: s.dur.bytes.Load(),
		Superseded:   s.dur.superseded.Load(),
	}
}

// CloseDurable drains the in-flight persist and the mailbox (if occupied) and
// stops the persister, so the newest resident state is on disk when it
// returns. The session remains usable in memory; further refreshes simply
// stop persisting. Idempotent.
func (s *Session) CloseDurable() {
	if s.dur == nil {
		return
	}
	close(s.dur.mailbox)
	<-s.dur.done
	s.dur = nil
}

// persistResident captures the current resident state and leaves it in the
// mailbox for background persistence. Runs on the refresh goroutine at the
// end of a pass that ran compute, and never blocks: an unstarted job is taken
// back and captured over (its state is superseded; this one carries a mark at
// least as high), otherwise an idle buffer set exists — of the two, at most
// one is being written and none is in the mailbox.
func (s *Session) persistResident(g *graph.Graph) {
	d := s.dur
	if d == nil || !s.primed {
		return
	}
	var job *sessionPersistJob
	select {
	case job = <-d.mailbox:
		d.superseded.Add(1)
	default:
		job = <-d.free
	}
	L := s.model.NumLayers()
	job.g = g // immutable: later Mutates only edit the overlay
	job.mark = s.replayMark
	if job.layers == nil {
		job.layers = make([]*tensor.Matrix, L+1)
		job.msgs = make([]*tensor.Matrix, L)
	}
	// layers[0] aliases the graph's feature matrix and travels inside the
	// graph segment; only the computed slabs need copies.
	for k := 1; k <= L; k++ {
		job.layers[k] = copyMatrixInto(job.layers[k], s.layers[k])
	}
	for k := 0; k < L; k++ {
		if s.emits[k] {
			job.msgs[k] = copyMatrixInto(job.msgs[k], s.msgs[k])
		} else {
			job.msgs[k] = nil
		}
	}
	d.mailbox <- job
}

// copyMatrixInto deep-copies src, reusing dst's backing array when shapes
// allow — steady-state persists allocate nothing.
func copyMatrixInto(dst, src *tensor.Matrix) *tensor.Matrix {
	if dst == nil || dst.Rows != src.Rows || dst.Cols != src.Cols {
		dst = tensor.New(src.Rows, src.Cols)
	}
	copy(dst.Data, src.Data)
	return dst
}

// run is the persister goroutine: encode each captured slab set as one epoch,
// return the buffers for recycling, surface the outcome through the hook.
func (d *sessionDurable) run(model *gas.Model) {
	defer close(d.done)
	for job := range d.mailbox {
		err := d.persistOne(model, job)
		if err != nil {
			d.failures.Add(1)
		}
		epoch := int(d.epochs.Load())
		mark := job.mark
		job.g = nil // drop the graph reference before recycling
		d.free <- job
		if d.doneHook != nil {
			d.doneHook(epoch, mark, err)
		}
	}
}

func (d *sessionDurable) persistOne(model *gas.Model, job *sessionPersistJob) error {
	if d.beginHook != nil {
		if err := d.beginHook(job.mark); err != nil {
			return err
		}
	}
	start := time.Now()
	L := model.NumLayers()
	meta := checkpoint.AppendU32(d.meta[:0], sessionMetaVersion)
	meta = checkpoint.AppendU64(meta, job.mark)
	meta = checkpoint.AppendU64(meta, uint64(job.g.NumNodes))
	meta = checkpoint.AppendU64(meta, uint64(L))
	meta = checkpoint.AppendU64(meta, uint64(model.InDim()))
	for k := 0; k < L; k++ {
		meta = checkpoint.AppendU64(meta, uint64(model.Layers[k].OutDim()))
		d.emits[k] = job.msgs[k] != nil
	}
	d.meta = checkpoint.AppendBools(meta, d.emits)
	d.graph = job.g.AppendEncoding(d.graph[:0])

	segs := append(d.segs[:0],
		checkpoint.Segment{Name: "session-meta", Data: d.meta},
		checkpoint.Segment{Name: "graph", Data: d.graph},
	)
	for k := 1; k <= L; k++ {
		d.slabs[k-1] = appendMatrix(d.slabs[k-1][:0], job.layers[k])
		segs = append(segs, checkpoint.Segment{Name: d.names[k-1], Data: d.slabs[k-1]})
	}
	for k := 0; k < L; k++ {
		if job.msgs[k] != nil {
			d.slabs[L+k] = appendMatrix(d.slabs[L+k][:0], job.msgs[k])
			segs = append(segs, checkpoint.Segment{Name: d.names[L+k], Data: d.slabs[L+k]})
		}
	}
	d.segs = segs
	if err := d.store.Save(int(job.mark), segs); err != nil {
		return err
	}
	d.epochs.Add(1)
	d.bytes.Store(d.store.BytesWritten())
	d.lastNs.Store(time.Since(start).Nanoseconds())
	return nil
}

// ResumeSession reconstructs a primed Session from the newest valid epoch in
// opts.SessionDir. Returns (nil, false, nil) on a cold start — no directory
// or no valid epoch — in which case the caller builds a fresh session with
// NewSession and primes it with a full pass. On success the session's
// ReplayMark tells the caller which WAL prefix the resident state already
// contains; replaying the records above it (Mutate each, then one Refresh)
// yields logits byte-identical to a process that never crashed.
func ResumeSession(model *gas.Model, opts Options) (*Session, bool, error) {
	if opts.SessionDir == "" {
		return nil, false, fmt.Errorf("inference: ResumeSession requires SessionDir")
	}
	st, err := checkpoint.NewStore(opts.SessionDir)
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	_, segs, found, err := st.Load()
	if err != nil || !found {
		return nil, false, err
	}
	var timing ResumeTiming
	timing.LoadNs = time.Since(start).Nanoseconds()
	bySeg := make(map[string][]byte, len(segs))
	for _, sg := range segs {
		bySeg[sg.Name] = sg.Data
	}

	r := checkpoint.NewReader(bySeg["session-meta"])
	if v := r.U32(); v != sessionMetaVersion {
		return nil, false, fmt.Errorf("inference: session epoch version %d, want %d (regenerate the session dir)", v, sessionMetaVersion)
	}
	mark := r.U64()
	n := int(r.U64())
	L := int(r.U64())
	inDim := int(r.U64())
	if L != model.NumLayers() || inDim != model.InDim() {
		return nil, false, fmt.Errorf("inference: session epoch is for a %d-layer/%d-dim model, have %d/%d",
			L, inDim, model.NumLayers(), model.InDim())
	}
	outDims := make([]int, L)
	for k := range outDims {
		outDims[k] = int(r.U64())
	}
	emits := r.Bools()
	if err := r.Err(); err != nil {
		return nil, false, fmt.Errorf("inference: session epoch meta: %w", err)
	}
	if len(emits) != L {
		return nil, false, fmt.Errorf("inference: session epoch meta truncated")
	}
	for k := 0; k < L; k++ {
		if outDims[k] != model.Layers[k].OutDim() {
			return nil, false, fmt.Errorf("inference: session epoch layer %d out-dim %d, model has %d",
				k, outDims[k], model.Layers[k].OutDim())
		}
	}

	start = time.Now()
	g, err := graph.Decode(bySeg["graph"])
	timing.GraphNs = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, false, fmt.Errorf("inference: session epoch graph: %w", err)
	}
	if g.NumNodes != n {
		return nil, false, fmt.Errorf("inference: session epoch graph has %d nodes, meta says %d", g.NumNodes, n)
	}

	s, err := NewSession(model, g, opts)
	if err != nil {
		return nil, false, err
	}
	for k := 0; k < L; k++ {
		if s.emits[k] != emits[k] {
			s.CloseDurable()
			return nil, false, fmt.Errorf("inference: session epoch layer %d emit mismatch", k)
		}
	}
	start = time.Now()
	s.layers = make([]*tensor.Matrix, L+1)
	s.msgs = make([]*tensor.Matrix, L)
	s.layers[0] = g.Features
	for k := 1; k <= L; k++ {
		mr := checkpoint.NewReader(bySeg[layerSegment(k)])
		m := readMatrix(mr)
		if m == nil || m.Rows != n || m.Cols != outDims[k-1] {
			s.CloseDurable()
			return nil, false, fmt.Errorf("inference: session epoch layer %d slab malformed", k)
		}
		s.layers[k] = m
	}
	for k := 0; k < L; k++ {
		if !emits[k] {
			s.msgs[k] = s.layers[k]
			continue
		}
		mr := checkpoint.NewReader(bySeg[msgsSegment(k)])
		m := readMatrix(mr)
		if m == nil || m.Rows != n || m.Cols != emitterOf(model.Layers[k]).MsgDim() {
			s.CloseDurable()
			return nil, false, fmt.Errorf("inference: session epoch message slab %d malformed", k)
		}
		s.msgs[k] = m
	}
	s.dirtyStep = growInt32(nil, n)
	s.pendState = growBools(nil, n)
	s.pendInbox = growBools(nil, n)
	s.pendPinned = growBools(nil, n)
	s.primed = true
	s.replayMark = mark
	timing.SlabsNs = time.Since(start).Nanoseconds()
	s.resumed = timing
	return s, true, nil
}

// layerSegment and msgsSegment name an epoch's slab segments.
func layerSegment(k int) string { return fmt.Sprintf("layer-%d", k) }
func msgsSegment(k int) string  { return fmt.Sprintf("msgs-%d", k) }

// ResumeTiming decomposes ResumeSession's wall time into its three phases.
// All zero for a session that did not resume.
type ResumeTiming struct {
	LoadNs  int64 // newest valid epoch read and CRC-checked
	GraphNs int64 // graph segment decoded and validated
	SlabsNs int64 // layer and message slabs decoded
}

// ResumeTiming reports how long ResumeSession spent in each phase.
func (s *Session) ResumeTiming() ResumeTiming { return s.resumed }
