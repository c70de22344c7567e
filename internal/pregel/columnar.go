package pregel

// The columnar message plane: instead of boxing every message with its own
// heap-allocated payload, programs copy payloads into views carved from
// recycled []float32 pages, alongside parallel dst/kind/src/count columns.
// One send buffer exists per (sender, receiver) worker pair and recycles
// across supersteps through a per-pair free list, so a steady-state
// superstep performs no per-message allocation and, once the pages of the
// first two generations exist, no page allocation either:
// the cost of messaging scales with the bytes moved, not the number of
// messages created.
//
// Delivery is zero-copy. The barrier's counting sort builds per-receiver
// CSR-shaped inboxes whose payload entries are the sender buffers' views —
// payload floats are written exactly once (at send) and read in place (at
// gather). The pages backing an inbox stay alive for one extra superstep
// (the "live" generation) and only then return to the free list.
//
// Checkpoints are the one place this aliasing must be cut: a snapshot
// deep-copies every payload out of the live pages into its own flat arena,
// because by the time a recovery replays, the original pages have been
// recycled and overwritten. Restores may alias the snapshot arena in turn —
// snapshots are immutable after capture; every writer (send append, combine,
// recycle) targets engine-owned buffers only.

// Batch is a zero-copy columnar view of messages: a worker's inbox
// (BatchContext.InboxCSR) or its mailbox (BatchContext.ColumnarWorkerMail).
// All columns share indexing; Payloads entries are views into the send
// buffers' pages, valid only for the duration of the current superstep and
// never to be mutated. Send buffers size themselves — payload pages grow by
// appending a page and are kept for the pair's later generations, and
// header columns are sized from the pair's previous generation — so a
// program states no volume hints.
type Batch struct {
	Kinds    []uint8
	Srcs     []int32
	Counts   []int32
	Payloads [][]float32
}

// Len returns the number of messages in the batch.
func (b Batch) Len() int { return len(b.Kinds) }

// colBuf is one sender→receiver send buffer: message headers in parallel
// columns and, per message, a payload view carved from the buffer's pages.
// Appends carve fresh views and in-place combines rewrite an existing one;
// a carved view never moves, so pays[i] stays valid for the buffer's whole
// generation.
type colBuf struct {
	dsts   []int32
	kinds  []uint8
	srcs   []int32
	counts []int32
	pays   [][]float32
	// shared[i] marks row i's view as potentially aliased by other rows
	// (fan-out sends); a combine into a shared row materializes a private
	// accumulator first. Rows appended by add are exclusive.
	shared []bool

	// pages back the payload views. A page's length is its carved prefix;
	// cur indexes the page being carved. big holds the pages of payloads
	// longer than maxPage, one each, nbig of them in use. Pages survive
	// reset, so a recycled buffer refills the pages of its earlier
	// generation.
	pages [][]float32
	cur   int
	big   [][]float32
	nbig  int
}

// Page geometry, in floats. Page i of a buffer holds min(minPage<<i,
// maxPage) floats, so a quiet buffer stays small and a busy one settles at
// maxPage (64 KiB). A payload never straddles two pages: a new page is
// widened (up to maxPage) to fit a payload larger than its step, and a
// payload longer than maxPage gets a page of its own length beside the
// regular ones. Growth appends a page and copies nothing.
const (
	minPage = 1 << 10
	maxPage = 1 << 14
)

// pageSize returns the capacity of a new page i that must fit n <= maxPage
// floats.
func pageSize(i, n int) int {
	size := minPage
	for ; i > 0 && size < maxPage; i-- {
		size <<= 1
	}
	for size < n {
		size <<= 1
	}
	return size
}

// reset truncates the buffer for reuse, keeping every backing array and
// every page.
func (b *colBuf) reset() {
	b.dsts = b.dsts[:0]
	b.kinds = b.kinds[:0]
	b.srcs = b.srcs[:0]
	b.counts = b.counts[:0]
	b.pays = b.pays[:0]
	b.shared = b.shared[:0]
	for i := range b.pages {
		b.pages[i] = b.pages[i][:0]
	}
	b.cur = 0
	for i := range b.big {
		b.big[i] = b.big[i][:0]
	}
	b.nbig = 0
}

// carve returns an n-float view of the buffer's pages, moving on to the
// next page when the current one has no room for n more. A kept page too
// small for n (a wider payload than its earlier generation carved) is
// replaced.
func (b *colBuf) carve(n int) []float32 {
	if n > maxPage {
		return b.carveBig(n)
	}
	if b.cur < len(b.pages) {
		p := b.pages[b.cur]
		if l := len(p); cap(p)-l >= n {
			b.pages[b.cur] = p[:l+n]
			return p[l : l+n : l+n]
		}
		if len(p) > 0 {
			b.cur++
		}
	}
	if b.cur == len(b.pages) {
		b.pages = append(b.pages, nil)
	}
	if cap(b.pages[b.cur]) < n {
		b.pages[b.cur] = make([]float32, 0, pageSize(b.cur, n))
	}
	p := b.pages[b.cur][:n]
	b.pages[b.cur] = p
	return p[:n:n]
}

// carveBig gives a payload longer than maxPage a page of its own, kept
// apart from the regular pages so the one being carved is not cut short.
func (b *colBuf) carveBig(n int) []float32 {
	if b.nbig == len(b.big) {
		b.big = append(b.big, nil)
	}
	if cap(b.big[b.nbig]) < n {
		b.big[b.nbig] = make([]float32, 0, n)
	}
	p := b.big[b.nbig][:n]
	b.big[b.nbig] = p
	b.nbig++
	return p[:n:n]
}

// add appends one message, copying the payload into a freshly carved view.
func (b *colBuf) add(dst int32, kind uint8, src, count int32, pay []float32) {
	v := b.carve(len(pay))
	copy(v, pay)
	b.addAlias(dst, kind, src, count, v)
	b.shared[len(b.shared)-1] = false
}

// addAlias appends one message whose payload is the existing view pay: the
// fan-out path stores a broadcast-identical payload once per buffer and
// points every further header at it, so a hub vertex's out-edges cost one
// payload copy per destination worker instead of one per edge. Views never
// move, so later carving cannot invalidate an alias.
func (b *colBuf) addAlias(dst int32, kind uint8, src, count int32, pay []float32) {
	b.dsts = append(b.dsts, dst)
	b.kinds = append(b.kinds, kind)
	b.srcs = append(b.srcs, src)
	b.counts = append(b.counts, count)
	b.pays = append(b.pays, pay)
	b.shared = append(b.shared, true)
}

// mergeTarget returns the accumulator view for an in-place combine into
// row i. Exclusive rows (appended by add outside a fan) combine in place,
// the common hot path. Shared rows — a fan view other rows may alias — first
// materialize a private copy in a freshly carved view, so the combine
// cannot corrupt sibling messages or the pristine payload later aliases
// read; the materialized row is exclusive from then on. It produces the
// same merged values as a per-edge send would: the fold runs on an
// identical copy of the same accumulator.
func (b *colBuf) mergeTarget(i int32) []float32 {
	if !b.shared[i] {
		return b.pays[i]
	}
	v := b.carve(len(b.pays[i]))
	copy(v, b.pays[i])
	b.pays[i] = v
	b.shared[i] = false
	return v
}

// reserve grows the header columns to hold at least msgs rows, replacing
// log-many append doublings with one allocation per column when the
// expected count is known up front. Payload floats need no reserve: pages
// grow by appending, never by copying.
func (b *colBuf) reserve(msgs int) {
	if cap(b.dsts) < msgs {
		b.dsts = make([]int32, 0, msgs)
		b.kinds = make([]uint8, 0, msgs)
		b.srcs = make([]int32, 0, msgs)
		b.counts = make([]int32, 0, msgs)
		b.pays = make([][]float32, 0, msgs)
		b.shared = make([]bool, 0, msgs)
	}
}

// bufPool recycles send buffers per (sender, receiver) slot, s*NumWorkers+r.
// A buffer retires to its slot once the inbox views into its pages have
// been consumed (one superstep after it was filled) and comes back out,
// truncated, to the same pair two generations later, so its pages already
// fit that pair's volume and a steady state allocates none.
type bufPool struct {
	free []*colBuf
}

// get returns slot's truncated buffer, its header columns reserved to the
// row count of hint (the previous generation's buffer for the same pair,
// whose volume the new superstep will roughly repeat). hint may be nil.
func (p *bufPool) get(slot int, hint *colBuf) *colBuf {
	b := p.free[slot]
	p.free[slot] = nil
	if b == nil {
		b = &colBuf{}
	} else {
		b.reset()
	}
	if hint != nil {
		b.reserve(len(hint.dsts))
	}
	return b
}

// put retires b to slot. A recovery retires two generations at once; the
// slot keeps the first and leaves the other to the GC.
func (p *bufPool) put(slot int, b *colBuf) {
	if p.free[slot] == nil {
		p.free[slot] = b
	}
}

// colCols holds flat message columns for a receiver-side inbox or worker
// mailbox. Backing arrays are reused across supersteps (grow-only); pays
// entries are zero-copy views into sender pages.
type colCols struct {
	kinds  []uint8
	srcs   []int32
	counts []int32
	pays   [][]float32
}

// resize sets the column length to n, reusing capacity.
func (c *colCols) resize(n int) {
	if cap(c.kinds) < n {
		c.kinds = make([]uint8, n)
		c.srcs = make([]int32, n)
		c.counts = make([]int32, n)
		c.pays = make([][]float32, n)
		return
	}
	c.kinds = c.kinds[:n]
	c.srcs = c.srcs[:n]
	c.counts = c.counts[:n]
	c.pays = c.pays[:n]
}

// set writes message fields at slot i.
func (c *colCols) set(i int, kind uint8, src, count int32, pay []float32) {
	c.kinds[i] = kind
	c.srcs[i] = src
	c.counts[i] = count
	c.pays[i] = pay
}

// batch returns the [lo, hi) view.
func (c *colCols) batch(lo, hi int32) Batch {
	return Batch{
		Kinds:    c.kinds[lo:hi],
		Srcs:     c.srcs[lo:hi],
		Counts:   c.counts[lo:hi],
		Payloads: c.pays[lo:hi],
	}
}

// colInbox is one receiver's CSR inbox for a superstep: off is indexed by
// the receiver's dense local vertex index (graph.Partitioner.LocalIndex),
// so vertex v's messages are cols[off[li] : off[li+1]]. next is the scatter
// cursor of the counting sort's second pass.
type colInbox struct {
	off  []int32 // len ownedCount+1
	next []int32 // len ownedCount
	cols colCols
}

// colSnap is the checkpointed form of a colCols (+ optional CSR offsets):
// headers copied, payloads flattened into an owned arena. Immutable after
// capture.
type colSnap struct {
	off    []int32 // nil for worker mail
	kinds  []uint8
	srcs   []int32
	counts []int32
	payOff []int // len msgs+1; payload i is arena[payOff[i]:payOff[i+1]]
	arena  []float32
}

// snapColsInto deep-copies columns into a snapshot slot, cutting every page
// alias. It reuses the slot's slice capacity, so a recycled snapshot (see
// takeCheckpoint) captures without reallocating.
func snapColsInto(s *colSnap, off []int32, c *colCols) {
	s.off = append(s.off[:0], off...)
	s.kinds = append(s.kinds[:0], c.kinds...)
	s.srcs = append(s.srcs[:0], c.srcs...)
	s.counts = append(s.counts[:0], c.counts...)
	if cap(s.payOff) < len(c.pays)+1 {
		s.payOff = make([]int, len(c.pays)+1)
	} else {
		s.payOff = s.payOff[:len(c.pays)+1]
	}
	total := 0
	for _, p := range c.pays {
		total += len(p)
	}
	if cap(s.arena) < total {
		s.arena = make([]float32, 0, total) // one exact allocation, no append doubling
	} else {
		s.arena = s.arena[:0]
	}
	for i, p := range c.pays {
		s.payOff[i] = len(s.arena)
		s.arena = append(s.arena, p...)
	}
	s.payOff[len(c.pays)] = len(s.arena)
}

// restoreCols rebuilds live columns from a snapshot. Headers are copied
// (the barrier overwrites the live arrays in place); payload views alias
// the snapshot's arena, which is safe because snapshots are never written
// after capture and every future send/recycle targets engine-owned buffers.
func restoreCols(off []int32, c *colCols, s colSnap) {
	copy(off, s.off)
	n := len(s.kinds)
	c.resize(n)
	copy(c.kinds, s.kinds)
	copy(c.srcs, s.srcs)
	copy(c.counts, s.counts)
	for i := 0; i < n; i++ {
		c.pays[i] = s.arena[s.payOff[i]:s.payOff[i+1]]
	}
}
