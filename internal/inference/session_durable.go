package inference

// Durable incremental sessions: the resident-state half of the crash-safety
// story. The serving layer's mutation WAL makes acknowledged deltas durable;
// this file makes the state they were applied against durable, so a killed
// server restarts with "load slabs, replay unconsumed deltas as one delta
// pass" instead of a full re-prime.
//
// The durable form is a base plus a chain of links. A base is one
// checkpoint epoch holding the whole resident state: the graph and every
// computed slab. A link is a much smaller file bound to one base. It holds
// the slab rows that one refresh (or several, see below) changed, plus the
// graph.Delta batches applied since the previous link. The session writes a
// base after a full pass and on the first capture of a process; after a
// delta pass it writes a link; when the links' bytes pass foldFraction of
// the base's it folds them into a new base. So the bytes a delta refresh
// persists follow the rows it changed, not the resident state.
//
// After every refresh pass that ran compute, the refresh goroutine captures
// what it changed. A delta pass copies only its dirty rows, which the delta
// driver already records (dirtyStep, repairMessages' rows, the vertices
// added since the last pass); a full pass copies every slab into the spare
// slab set. The capture goes to a background persister, so encoding and
// disk IO overlap with serving and no refresh waits on disk. The persister
// keeps a shadow: the newest captured state, to which it applies each link's
// rows. Bases are written from the shadow, straight from slab memory, so a
// fold costs the refresh goroutine nothing. Two slab sets exist at most, the
// shadow and the spare, as two capture buffers did before links.
//
// The hand-off is a latest-wins mailbox. While one write runs, the next
// capture waits in the mailbox; a refresh that finds an unstarted capture
// there takes it back and captures over it. A link taken back is replaced
// by the union of its dirty rows and the new ones (re-copied from the
// resident slabs) and keeps every batch both carried, so the next written
// link covers everything since the last written one. A base taken back
// absorbs the new rows in place. Every resident state is therefore either
// persisted or superseded by a newer one that is.
//
// The replay mark is the WAL dedup cursor: the highest mutation sequence
// number whose effects the persisted state contains. Each base and link
// records the mark of the state it completes, and ResumeSession returns the
// mark of the newest valid link so the serving layer replays only WAL
// records above it. A crash between persist and WAL truncation therefore
// re-stages nothing already covered, and never double-applies a batch.
//
// Bit-identity across the crash: slab floats round-trip through their
// IEEE-754 bit patterns, the graph round-trips through graph.AppendEncoding,
// and a chain's batches re-apply through the same graph.Editor the live
// session used, which materializes the same CSR (and so the same gather
// order) whether its batches arrive in one drain or many. The delta pass
// that replays the unconsumed mutations is the same bitwise-exact engine
// path a never-crashed process would have run — so /v1/logits after resume
// is byte-identical to the oracle.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// sessionMetaVersion 4 is the base-plus-links layout: slab segments are raw
// little-endian floats whose shape the meta segment gives, and links carry
// dirty rows and delta batches. Older epochs — version 1 (gob graph),
// version 2 (message slabs for degree-scaled layers only) and version 3
// (whole-state epochs only) — are refused, never cold-started past, because
// their WAL prefix may already be truncated.
const sessionMetaVersion = 4

// foldFraction bounds the chain: once the links since the newest base hold
// this fraction of the base's bytes, the next persist writes a base instead
// of another link. A capture whose dirty rows pass the same fraction of the
// vertices is taken whole and written as a base, since its link would come
// close to a base's size anyway. The bound is set by resume time: a restart
// after a crash reads at most 1.5× the bytes of a base-only restart, and a
// clean close folds the chain, so an orderly restart reads a base alone.
const foldFraction = 0.5

// SessionDurableStats exposes the persister's observables for /v1/stats.
// Epochs, BytesWritten and LastWallNs count links as well as bases.
type SessionDurableStats struct {
	Epochs       int64 // bases and links durably written by this process
	Failures     int64 // persist attempts aborted or failed
	LastWallNs   int64 // wall time of the most recent successful persist
	BytesWritten int64 // cumulative bytes on disk, bases and links
	Superseded   int64 // captured states a newer capture replaced before their write began
	Links        int64 // links written since the newest base
	Folds        int64 // bases written over a non-empty chain
	LastBytes    int64 // size of the most recent successful persist
}

// slabSet is one copy of the computed resident state: layers[k] for k =
// 1..L (layers[0] is the graph's feature matrix and never copied) and
// msgs[k] for every emitting layer k (nil otherwise).
type slabSet struct {
	layers []*tensor.Matrix
	msgs   []*tensor.Matrix
}

// sessionPersistJob is one capture in flight to disk.
type sessionPersistJob struct {
	g    *graph.Graph // immutable snapshot; never copied
	mark uint64
	full *slabSet // a whole capture, written as a base

	// A link capture (full == nil): the rows of ids, ascending, per slab —
	// rows[k-1] for layer k, rows[L+k] for message slab k (nil when layer k
	// does not emit) — and the batches applied since the previous capture,
	// each length-prefixed, nDeltas of them.
	ids     []int32
	rows    [][]float32
	deltas  []byte
	nDeltas int
}

// sessionDurable is the session's background persistence machinery.
type sessionDurable struct {
	store     *checkpoint.Store
	beginHook func(mark uint64) error
	doneHook  func(epoch int, mark uint64, err error)

	// mailbox holds the newest capture whose write has not begun
	// (capacity 1); free holds the idle jobs (capacity 2: both are idle
	// before the first persist); spare holds the slab set a whole capture
	// copies into (capacity 1; the other set is the shadow). The refresh
	// goroutine is the only sender on mailbox and the only receiver on free
	// and spare.
	mailbox chan *sessionPersistJob
	free    chan *sessionPersistJob
	spare   chan *slabSet
	done    chan struct{}

	epochs     atomic.Int64
	failures   atomic.Int64
	lastNs     atomic.Int64
	superseded atomic.Int64
	links      atomic.Int64
	folds      atomic.Int64
	lastBytes  atomic.Int64
	// bytes mirrors the store's cumulative byte count: the Store is
	// persister-goroutine-private, so stats readers take this atomic instead.
	bytes atomic.Int64

	// Persister-goroutine state. shadow is the newest captured state (nil
	// until the first whole capture), at graph g and replay mark mark. On
	// disk, base epoch base and its nLinks links (chainBytes bytes; the base
	// is baseBytes) describe exactly the shadow — unless stale is set: a
	// write failed or none happened yet, and the next write must be a base.
	shadow                *slabSet
	g                     *graph.Graph
	mark                  uint64
	base, nLinks          int
	baseBytes, chainBytes int64
	stale                 bool

	// Encode buffers, reused across writes so a steady-state persist
	// allocates nothing write-sized. Slab and row segments are
	// checkpoint.F32Bytes of float memory: views of it on little-endian
	// hosts, encodings into bufs elsewhere (indexed as names). Reuse is
	// safe only because the Store keeps no reference to segment bytes
	// after a write returns.
	meta   []byte
	graph  []byte
	deltas []byte
	bufs   [][]byte
	names  []string // names[k-1] is layer k's slab, names[L+k] message slab k's
	emits  []bool
	segs   []checkpoint.Segment
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
		spare:     make(chan *slabSet, 1),
		done:      make(chan struct{}),
		stale:     true,
		bufs:      make([][]byte, 2*L),
		names:     make([]string, 2*L),
		emits:     make([]bool, L),
	}
	for k := 0; k < L; k++ {
		d.names[k] = layerSegment(k + 1)
		d.names[L+k] = msgsSegment(k)
	}
	d.free <- &sessionPersistJob{}
	d.free <- &sessionPersistJob{}
	d.spare <- &slabSet{}
	go d.run(s.model)
	s.dur = d
	// No base of this process exists yet: the first capture is whole.
	s.wholeNext = true
	return nil
}

// Durable reports whether the session persists resident state.
func (s *Session) Durable() bool { return s.dur != nil }

// ReplayMark returns the highest mutation sequence number the session's
// state (resident or, after persistence, durable) accounts for.
func (s *Session) ReplayMark() uint64 { return s.replayMark }

// SetReplayMark advances the replay mark. The serving layer calls it under
// its refresh lock after draining staged batches into the session, so the
// state persisted by the following Refresh records exactly the WAL prefix
// it consumed. Never call it mid-Refresh.
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
		Links:        s.dur.links.Load(),
		Folds:        s.dur.folds.Load(),
		LastBytes:    s.dur.lastBytes.Load(),
	}
}

// CloseDurable drains the in-flight persist and the mailbox (if occupied),
// folds any chain into a base, and stops the persister, so the newest
// resident state is on disk as one base when it returns. The session
// remains usable in memory; further refreshes simply stop persisting.
// Idempotent.
func (s *Session) CloseDurable() {
	if s.dur == nil {
		return
	}
	close(s.dur.mailbox)
	<-s.dur.done
	s.dur = nil
}

// recordDelta appends one applied batch to the batches the next link
// carries.
func (s *Session) recordDelta(d graph.Delta) {
	off := len(s.linkDeltas)
	s.linkDeltas = graph.AppendDelta(checkpoint.AppendU64(s.linkDeltas, 0), d)
	binary.LittleEndian.PutUint64(s.linkDeltas[off:], uint64(len(s.linkDeltas)-off-8))
	s.linkDeltaN++
}

// dirtyRows lists, ascending, the vertices whose persisted rows the delta
// pass just finished may have changed: a layer row recompute rewrote
// (dirtyStep >= 1), an emitted layer-0 row repairMessages rewrote for a new
// h^0 (dirtyStep == 0), a degree-scaled row it rewrote for a new out-degree
// (pinned), and every vertex added since the previous pass (ids >= added).
// Each such vertex carries all its rows, so one id per vertex suffices.
func (s *Session) dirtyRows(n, added int) []int32 {
	ids := s.dirtyIDs[:0]
	for v := 0; v < n; v++ {
		if step := s.dirtyStep[v]; step > 0 || v >= added || (step == 0 && s.emits[0]) || s.pendPinned[v] {
			ids = append(ids, int32(v))
		}
	}
	s.dirtyIDs = ids
	return ids
}

// persistResident hands the state the pass just produced to the persister.
// dirty lists the rows the pass changed (ascending); whole says it changed
// everything. Runs on the refresh goroutine at the end of a pass that ran
// compute, and never blocks for longer than the persister takes to swap a
// slab set: an unstarted job is taken back and captured over (its state is
// superseded; this one carries a mark at least as high), otherwise an idle
// job exists — of the two, at most one is being written and none is in the
// mailbox.
func (s *Session) persistResident(g *graph.Graph, dirty []int32, whole bool) {
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
		job.ids, job.deltas, job.nDeltas = job.ids[:0], job.deltas[:0], 0
	}
	job.g = g // immutable: later Mutates only edit the overlay
	job.mark = s.replayMark
	whole = whole || s.wholeNext
	if !whole && job.full == nil {
		u := unionIDs(s.unionIDs[:0], job.ids, dirty)
		s.unionIDs, job.ids = job.ids[:0], u
		whole = float64(len(job.ids)) > foldFraction*float64(g.NumNodes)
	}
	switch {
	case whole:
		if job.full == nil {
			job.full = <-d.spare
		}
		s.copySlabs(job.full)
	case job.full != nil:
		// An unstarted base absorbs this pass's rows.
		s.patchSlabs(job.full, dirty)
	default:
		s.copyRows(job)
		job.deltas = append(job.deltas, s.linkDeltas...)
		job.nDeltas += s.linkDeltaN
	}
	if job.full != nil {
		job.ids, job.deltas, job.nDeltas = job.ids[:0], job.deltas[:0], 0
	}
	s.linkDeltas, s.linkDeltaN, s.wholeNext = s.linkDeltas[:0], 0, false
	d.mailbox <- job
}

// copySlabs deep-copies every computed slab into set, reusing its storage.
func (s *Session) copySlabs(set *slabSet) {
	L := s.model.NumLayers()
	if set.layers == nil {
		set.layers = make([]*tensor.Matrix, L+1)
		set.msgs = make([]*tensor.Matrix, L)
	}
	for k := 1; k <= L; k++ {
		set.layers[k] = copyMatrixInto(set.layers[k], s.layers[k])
	}
	for k := 0; k < L; k++ {
		if s.emits[k] {
			set.msgs[k] = copyMatrixInto(set.msgs[k], s.msgs[k])
		} else {
			set.msgs[k] = nil
		}
	}
}

// patchSlabs copies the resident rows of ids into set, first growing set
// to the resident row count (rows added since are all among ids).
func (s *Session) patchSlabs(set *slabSet, ids []int32) {
	for k := 1; k < len(s.layers); k++ {
		set.layers[k] = patchRows(set.layers[k], s.layers[k], ids)
	}
	for k, m := range set.msgs {
		if m != nil {
			set.msgs[k] = patchRows(m, s.msgs[k], ids)
		}
	}
}

// copyRows gathers the resident rows of job.ids into job.rows.
func (s *Session) copyRows(job *sessionPersistJob) {
	L := s.model.NumLayers()
	if job.rows == nil {
		job.rows = make([][]float32, 2*L)
	}
	for k := 1; k <= L; k++ {
		job.rows[k-1] = gatherRows(job.rows[k-1][:0], s.layers[k], job.ids)
	}
	for k := 0; k < L; k++ {
		if s.emits[k] {
			job.rows[L+k] = gatherRows(job.rows[L+k][:0], s.msgs[k], job.ids)
		} else {
			job.rows[L+k] = nil
		}
	}
}

// copyMatrixInto deep-copies src, reusing dst's storage when its capacity
// allows — steady-state captures allocate nothing.
func copyMatrixInto(dst, src *tensor.Matrix) *tensor.Matrix {
	if dst == nil {
		dst = &tensor.Matrix{}
	}
	dst.Rows, dst.Cols = src.Rows, src.Cols
	dst.Data = append(dst.Data[:0], src.Data...)
	return dst
}

// growRows extends m to rows rows, amortizing reallocation; new rows are
// zero.
func growRows(m *tensor.Matrix, rows int) *tensor.Matrix {
	if m.Rows >= rows {
		return m
	}
	old := len(m.Data)
	m.Data = slices.Grow(m.Data, rows*m.Cols-old)[:rows*m.Cols]
	clear(m.Data[old:])
	m.Rows = rows
	return m
}

// patchRows copies src's rows ids into dst, grown to src's row count.
func patchRows(dst, src *tensor.Matrix, ids []int32) *tensor.Matrix {
	dst = growRows(dst, src.Rows)
	for _, v := range ids {
		copy(dst.Row(int(v)), src.Row(int(v)))
	}
	return dst
}

// gatherRows appends m's rows ids to dst.
func gatherRows(dst []float32, m *tensor.Matrix, ids []int32) []float32 {
	dst = slices.Grow(dst, len(ids)*m.Cols)
	for _, v := range ids {
		dst = append(dst, m.Row(int(v))...)
	}
	return dst
}

// unionIDs appends the sorted union of the ascending, duplicate-free a and
// b to dst, which must alias neither.
func unionIDs(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// run is the persister goroutine: persist each capture, return the job for
// recycling, surface the outcome through the hook. When the mailbox closes
// it folds any chain into a base.
func (d *sessionDurable) run(model *gas.Model) {
	defer close(d.done)
	for job := range d.mailbox {
		err := d.persist(model, job)
		mark := job.mark
		job.g = nil // drop the graph reference before recycling
		d.free <- job
		d.report(mark, err)
	}
	if d.shadow != nil && (d.nLinks > 0 || d.stale) {
		d.report(d.mark, d.writeBase(model))
	}
	d.g = nil
}

// report counts one persist outcome and runs the done hook.
func (d *sessionDurable) report(mark uint64, err error) {
	if err != nil {
		d.failures.Add(1)
	}
	if d.doneHook != nil {
		d.doneHook(int(d.epochs.Load()), mark, err)
	}
}

// persist folds one capture into the shadow and writes it: a whole capture
// becomes the shadow and is written as a base; a link capture's rows are
// applied to the shadow, and it is written as a link unless the chain must
// restart (stale) or has reached foldFraction of its base.
func (d *sessionDurable) persist(model *gas.Model, job *sessionPersistJob) error {
	whole := job.full != nil
	if whole {
		// Swap before anything that can block: the refresh goroutine may be
		// waiting for the spare.
		old := d.shadow
		d.shadow, job.full = job.full, nil
		if old == nil {
			old = &slabSet{}
		}
		d.spare <- old
	} else {
		if d.shadow == nil {
			d.stale = true
			return fmt.Errorf("inference: session link captured before any base")
		}
		d.applyRows(job)
	}
	d.g, d.mark = job.g, job.mark
	base := whole || d.stale || float64(d.chainBytes) >= foldFraction*float64(d.baseBytes)
	if base {
		return d.writeBase(model)
	}
	return d.writeLink(model, job)
}

// applyRows brings the shadow up to a link capture: grow to its node count,
// then overwrite its rows.
func (d *sessionDurable) applyRows(job *sessionPersistJob) {
	n := job.g.NumNodes
	apply := func(m *tensor.Matrix, rows []float32) *tensor.Matrix {
		m = growRows(m, n)
		for i, v := range job.ids {
			copy(m.Row(int(v)), rows[i*m.Cols:(i+1)*m.Cols])
		}
		return m
	}
	L := len(d.shadow.msgs)
	for k := 1; k <= L; k++ {
		d.shadow.layers[k] = apply(d.shadow.layers[k], job.rows[k-1])
	}
	for k, m := range d.shadow.msgs {
		if m != nil {
			d.shadow.msgs[k] = apply(m, job.rows[L+k])
		}
	}
}

// begin runs the begin hook; an error aborts the persist and restarts the
// chain.
func (d *sessionDurable) begin() error {
	if d.beginHook == nil {
		return nil
	}
	if err := d.beginHook(d.mark); err != nil {
		d.stale = true
		return err
	}
	return nil
}

// writeBase persists the shadow as a base. A base written over a non-empty
// chain is a fold.
func (d *sessionDurable) writeBase(model *gas.Model) error {
	if err := d.begin(); err != nil {
		return err
	}
	start := time.Now()
	L := model.NumLayers()
	n := d.g.NumNodes
	meta := checkpoint.AppendU32(d.meta[:0], sessionMetaVersion)
	meta = checkpoint.AppendU64(meta, d.mark)
	meta = checkpoint.AppendU64(meta, uint64(n))
	meta = checkpoint.AppendU64(meta, uint64(L))
	meta = checkpoint.AppendU64(meta, uint64(model.InDim()))
	for k := 0; k < L; k++ {
		meta = checkpoint.AppendU64(meta, uint64(model.Layers[k].OutDim()))
		d.emits[k] = d.shadow.msgs[k] != nil
	}
	d.meta = checkpoint.AppendBools(meta, d.emits)
	d.graph = d.g.AppendEncoding(d.graph[:0])

	segs := append(d.segs[:0],
		checkpoint.Segment{Name: "session-meta", Data: d.meta},
		checkpoint.Segment{Name: "graph", Data: d.graph},
	)
	slab := func(i int, m *tensor.Matrix) {
		d.bufs[i] = checkpoint.F32Bytes(d.bufs[i], m.Data[:n*m.Cols])
		segs = append(segs, checkpoint.Segment{Name: d.names[i], Data: d.bufs[i]})
	}
	for k := 1; k <= L; k++ {
		slab(k-1, d.shadow.layers[k])
	}
	for k, m := range d.shadow.msgs {
		if m != nil {
			slab(L+k, m)
		}
	}
	d.segs = segs
	before := d.store.BytesWritten()
	if err := d.store.Save(int(d.mark), segs); err != nil {
		d.stale = true
		return err
	}
	if d.nLinks > 0 {
		d.folds.Add(1)
	}
	d.base = d.store.LastEpoch()
	d.baseBytes = d.store.BytesWritten() - before
	d.nLinks, d.chainBytes, d.stale = 0, 0, false
	d.links.Store(0)
	d.landed(start, d.baseBytes)
	return nil
}

// writeLink persists one link capture as the next link of the current base.
func (d *sessionDurable) writeLink(model *gas.Model, job *sessionPersistJob) error {
	if err := d.begin(); err != nil {
		return err
	}
	start := time.Now()
	L := model.NumLayers()
	idx := d.nLinks + 1
	meta := checkpoint.AppendU32(d.meta[:0], sessionMetaVersion)
	meta = checkpoint.AppendU64(meta, uint64(d.base))
	meta = checkpoint.AppendU64(meta, uint64(idx))
	meta = checkpoint.AppendU64(meta, job.mark)
	meta = checkpoint.AppendU64(meta, uint64(job.g.NumNodes))
	d.meta = checkpoint.AppendI32s(meta, job.ids)
	d.deltas = append(checkpoint.AppendU64(d.deltas[:0], uint64(job.nDeltas)), job.deltas...)

	segs := append(d.segs[:0],
		checkpoint.Segment{Name: "link-meta", Data: d.meta},
		checkpoint.Segment{Name: "deltas", Data: d.deltas},
	)
	for i, rows := range job.rows {
		if i >= L && rows == nil {
			continue
		}
		d.bufs[i] = checkpoint.F32Bytes(d.bufs[i], rows)
		segs = append(segs, checkpoint.Segment{Name: d.names[i], Data: d.bufs[i]})
	}
	d.segs = segs
	before := d.store.BytesWritten()
	if err := d.store.SaveLink(d.base, idx, int(job.mark), segs); err != nil {
		d.stale = true
		return err
	}
	size := d.store.BytesWritten() - before
	d.nLinks, d.chainBytes = idx, d.chainBytes+size
	d.links.Store(int64(idx))
	d.landed(start, size)
	return nil
}

// landed records one successful write.
func (d *sessionDurable) landed(start time.Time, size int64) {
	d.epochs.Add(1)
	d.bytes.Store(d.store.BytesWritten())
	d.lastNs.Store(time.Since(start).Nanoseconds())
	d.lastBytes.Store(size)
}

// sessionLink is one parsed link of a chain.
type sessionLink struct {
	mark   uint64
	n      int
	ids    []int32
	deltas [][]byte
	rows   map[string][]byte
}

// ResumeSession reconstructs a primed Session from opts.SessionDir: the
// newest valid base, then the longest valid prefix of its chain of links.
// Returns (nil, false, nil) on a cold start — no directory or no valid base
// — in which case the caller builds a fresh session with NewSession and
// primes it with a full pass. On success the session's ReplayMark tells the
// caller which WAL prefix the resident state already contains; replaying the
// records above it (Mutate each, then one Refresh) yields logits
// byte-identical to a process that never crashed.
func ResumeSession(model *gas.Model, opts Options) (*Session, bool, error) {
	if opts.SessionDir == "" {
		return nil, false, fmt.Errorf("inference: ResumeSession requires SessionDir")
	}
	st, err := checkpoint.NewStore(opts.SessionDir)
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	// Slabs are read straight into the float memory that keeps them.
	epoch, _, segs, found, err := st.LoadEpoch(isSlabSegment)
	if err != nil || !found {
		return nil, false, err
	}
	var timing ResumeTiming
	timing.LoadNs = time.Since(start).Nanoseconds()
	bySeg := segmentMap(segs)
	slabs := make(map[string][]float32, len(segs))
	for _, sg := range segs {
		if sg.F32 != nil {
			slabs[sg.Name] = sg.F32
		}
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
		if emits[k] != (emitterOf(model.Layers[k]) != nil) {
			return nil, false, fmt.Errorf("inference: session epoch layer %d emit mismatch", k)
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

	start = time.Now()
	chain, err := loadChain(st, epoch, mark, n)
	if err != nil {
		return nil, false, err
	}
	final := n
	if len(chain) > 0 {
		final = chain[len(chain)-1].n
	}
	timing.ChainNs = time.Since(start).Nanoseconds()

	// Slabs grow to the chain's final node count; rows the base does not
	// hold start zero and every one of them is a link row.
	start = time.Now()
	layers := make([]*tensor.Matrix, L+1)
	msgs := make([]*tensor.Matrix, L)
	decode := func(name string, cols int) (*tensor.Matrix, error) {
		data := slabs[name]
		if len(data) != n*cols {
			return nil, fmt.Errorf("inference: session epoch slab %s malformed", name)
		}
		m := &tensor.Matrix{Rows: n, Cols: cols, Data: data}
		if final > n {
			m = tensor.New(final, cols)
			copy(m.Data, data)
		}
		return m, nil
	}
	for k := 1; k <= L; k++ {
		if layers[k], err = decode(layerSegment(k), outDims[k-1]); err != nil {
			return nil, false, err
		}
	}
	for k := 0; k < L; k++ {
		if emits[k] {
			if msgs[k], err = decode(msgsSegment(k), emitterOf(model.Layers[k]).MsgDim()); err != nil {
				return nil, false, err
			}
		}
	}
	timing.SlabsNs = time.Since(start).Nanoseconds()

	start = time.Now()
	if len(chain) > 0 {
		if g, err = applyChain(g, chain, layers, msgs); err != nil {
			return nil, false, err
		}
		mark = chain[len(chain)-1].mark
	}
	timing.ChainNs += time.Since(start).Nanoseconds()

	s, err := NewSession(model, g, opts)
	if err != nil {
		return nil, false, err
	}
	layers[0] = g.Features
	for k := 0; k < L; k++ {
		if !emits[k] {
			msgs[k] = layers[k]
		}
	}
	s.layers, s.msgs = layers, msgs
	s.dirtyStep = growInt32(nil, final)
	s.pendState = growBools(nil, final)
	s.pendInbox = growBools(nil, final)
	s.pendPinned = growBools(nil, final)
	s.primed = true
	s.replayMark = mark
	s.resumed = timing
	return s, true, nil
}

// loadChain reads base epoch's links in order and returns the longest
// valid prefix: the first missing, torn or corrupt file ends it. A link
// that passes its checksums but does not fit the chain is an error, not an
// end — only a bug writes one.
func loadChain(st *checkpoint.Store, epoch int, mark uint64, n int) ([]sessionLink, error) {
	var chain []sessionLink
	for idx := 1; ; idx++ {
		_, segs, err := st.LoadLink(epoch, idx)
		if err != nil {
			return chain, nil
		}
		bySeg := segmentMap(segs)
		r := checkpoint.NewReader(bySeg["link-meta"])
		v, base, at := r.U32(), int(r.U64()), int(r.U64())
		l := sessionLink{mark: r.U64(), n: int(r.U64()), ids: r.I32s(), rows: bySeg}
		dr := checkpoint.NewReader(bySeg["deltas"])
		for i, nd := 0, int(dr.U64()); i < nd && dr.Err() == nil; i++ {
			l.deltas = append(l.deltas, dr.Bytes())
		}
		switch {
		case r.Err() != nil || dr.Err() != nil || dr.Remaining() != 0:
			return nil, fmt.Errorf("inference: session link %d of epoch %d malformed", idx, epoch)
		case v != sessionMetaVersion || base != epoch || at != idx:
			return nil, fmt.Errorf("inference: session link %d of epoch %d claims version %d, epoch %d, index %d", idx, epoch, v, base, at)
		case l.mark < mark || l.n < n || !slices.IsSorted(l.ids) || (len(l.ids) > 0 && int(l.ids[len(l.ids)-1]) >= l.n):
			return nil, fmt.Errorf("inference: session link %d of epoch %d does not follow its predecessor", idx, epoch)
		}
		chain = append(chain, l)
		mark, n = l.mark, l.n
	}
}

// applyChain re-applies the chain's batches to the base graph through one
// Editor (one materialization) and writes its rows into the slabs.
func applyChain(g *graph.Graph, chain []sessionLink, layers, msgs []*tensor.Matrix) (*graph.Graph, error) {
	ed := graph.NewEditor(g)
	for li, l := range chain {
		for _, p := range l.deltas {
			d, err := graph.DecodeDelta(p)
			if err == nil {
				_, err = ed.Apply(d)
			}
			if err != nil {
				return nil, fmt.Errorf("inference: session link %d batch: %w", li+1, err)
			}
		}
		if ed.NumNodes() != l.n {
			return nil, fmt.Errorf("inference: session link %d reaches %d nodes, says %d", li+1, ed.NumNodes(), l.n)
		}
		patch := func(m *tensor.Matrix, name string) error {
			data := l.rows[name]
			if len(data) != 4*len(l.ids)*m.Cols {
				return fmt.Errorf("inference: session link %d segment %s malformed", li+1, name)
			}
			for i, v := range l.ids {
				checkpoint.DecodeF32s(m.Row(int(v)), data[4*i*m.Cols:4*(i+1)*m.Cols])
			}
			return nil
		}
		for k := 1; k < len(layers); k++ {
			if err := patch(layers[k], layerSegment(k)); err != nil {
				return nil, err
			}
		}
		for k, m := range msgs {
			if m != nil {
				if err := patch(m, msgsSegment(k)); err != nil {
					return nil, err
				}
			}
		}
	}
	return ed.Graph(), nil
}

func segmentMap(segs []checkpoint.Segment) map[string][]byte {
	m := make(map[string][]byte, len(segs))
	for _, sg := range segs {
		m[sg.Name] = sg.Data
	}
	return m
}

// layerSegment and msgsSegment name the slab segments of bases and links.
func layerSegment(k int) string { return fmt.Sprintf("layer-%d", k) }
func msgsSegment(k int) string  { return fmt.Sprintf("msgs-%d", k) }

func isSlabSegment(name string) bool {
	return strings.HasPrefix(name, "layer-") || strings.HasPrefix(name, "msgs-")
}

// ResumeTiming decomposes ResumeSession's wall time into its phases. All
// zero for a session that did not resume.
type ResumeTiming struct {
	LoadNs  int64 // newest valid base read, slabs included, and CRC-checked
	GraphNs int64 // graph segment decoded and validated
	SlabsNs int64 // layer and message slabs checked and grown to the chain's node count
	ChainNs int64 // links read, their batches re-applied and rows patched in
}

// ResumeTiming reports how long ResumeSession spent in each phase.
func (s *Session) ResumeTiming() ResumeTiming { return s.resumed }
