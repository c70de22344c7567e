package inference

import (
	"fmt"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// RefreshKind reports which execution path a Session.Refresh took.
type RefreshKind string

const (
	// RefreshFull recomputed every vertex from scratch (first refresh, or a
	// flood estimate past the cutover fraction).
	RefreshFull RefreshKind = "full"
	// RefreshDelta recomputed only the L-hop flood of the pending change set
	// against the resident state.
	RefreshDelta RefreshKind = "delta"
)

// Session is the incremental execution mode: a resident, restartable
// inference state machine over a mutable graph. A full pass populates
// per-layer state slabs; Mutate folds graph deltas into a graph.Editor overlay
// and accumulates their seed sets; Refresh materializes the graph once for
// however many batches arrived and recomputes logits — through a
// frontier-driven delta pass proportional to the change set's L-hop flood
// when the flood is small, or a full pass (which re-populates the resident
// state as a side effect) when it is not. Every path returns logits
// bit-identical to RunPregel from scratch on the current graph.
//
// Resident-state ownership: the session owns one global slab per layer
// (layers[k], NumNodes × dim_k) plus one wire-message slab per emitting layer
// (gas.Emitter: NumNodes × MsgDim, captured from the pass that sent the
// rows); layers[0] aliases the feature matrix of the graph the latest pass
// ran on (every pass re-points it at its materialized graph). During a pass,
// slab rows are written only by the owning vertex's worker at that vertex's
// superstep — layer separation (writes hit slab k while gathers read slab
// k-1) keeps parallel workers race-free without merging. Results hand out
// clones, never slab aliases, so a previous Refresh's logits stay immutable
// while the next pass runs (the serving layer's RCU snapshots depend on
// this).
//
// A Session is not safe for concurrent use; callers serialize Mutate and
// Refresh (the serving layer does this under its refresh lock).
type Session struct {
	model *gas.Model
	opts  Options

	ed *graph.Editor // the mutable graph: base snapshot + batches applied since

	primed    bool // a full pass has populated the resident slabs
	layers    []*tensor.Matrix
	msgs      []*tensor.Matrix
	emits     []bool // Layers[k] owns a wire-message slab msgs[k]
	anyDegree bool   // some layer's wire message depends on out-degree
	dirtyStep []int32
	batches   []deltaBatch // per-worker delta-pass scratch

	pendState  []bool
	pendInbox  []bool
	pendPinned []bool
	pending    bool

	// Durable-session state (nil unless Options.SessionDir is set).
	dur        *sessionDurable
	replayMark uint64       // highest mutation seq the resident state accounts for
	resumed    ResumeTiming // zero unless ResumeSession built this session
	// wholeNext makes the next capture whole: this process has captured no
	// base yet, or a failed pass may have changed rows it never captured.
	wholeNext bool
	// linkDeltas holds the linkDeltaN batches applied since the last
	// capture, each length-prefixed in graph.AppendDelta's encoding.
	linkDeltas []byte
	linkDeltaN int
	dirtyIDs   []int32 // dirtyRows' scratch
	unionIDs   []int32 // persistResident's merge scratch
}

// NewSession validates the model/graph pair and the options. The knobs that
// assume a one-shot run are rejected: skew strategies rewrite the executed
// graph or change the message mix (ShadowNodes, Broadcast, PartialGather),
// and EmitEmbeddings targets one-shot runs. In-process fault tolerance
// (CheckpointEvery, Faults) is fully supported.
func NewSession(model *gas.Model, g *graph.Graph, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	if err := validateModelGraph(model, g); err != nil {
		return nil, err
	}
	for name, set := range map[string]bool{
		"PartialGather":  opts.PartialGather,
		"Broadcast":      opts.Broadcast,
		"ShadowNodes":    opts.ShadowNodes,
		"EmitEmbeddings": opts.EmitEmbeddings,
	} {
		if set {
			return nil, fmt.Errorf("inference: incremental Session does not support %s", name)
		}
	}
	s := &Session{model: model, opts: opts, ed: graph.NewEditor(g), batches: make([]deltaBatch, opts.NumWorkers)}
	s.emits = make([]bool, model.NumLayers())
	for k, l := range model.Layers {
		s.emits[k] = emitterOf(l) != nil
		s.anyDegree = s.anyDegree || degreeScaled(l)
	}
	if err := s.initDurable(); err != nil {
		return nil, err
	}
	return s, nil
}

// Graph returns the session's current graph as an immutable snapshot,
// materializing the batches applied since the last call (one rebuild however
// many there were).
func (s *Session) Graph() *graph.Graph { return s.ed.Graph() }

// GraphRebuilds counts the graph snapshots the session has materialized.
func (s *Session) GraphRebuilds() int { return s.ed.Rebuilds() }

// SetFaults rearms the in-process fault-injection plan for subsequent
// passes — the serving layer's chaos harness injects crashes between
// refreshes. Call only between Refreshes, never during one.
func (s *Session) SetFaults(f *pregel.FaultPlan) { s.opts.Faults = f }

// Primed reports whether resident state exists (a full pass has run).
func (s *Session) Primed() bool { return s.primed }

// Pending reports whether mutations await a Refresh.
func (s *Session) Pending() bool { return s.pending }

// cutoverFrac resolves the delta→full fallback fraction.
func (s *Session) cutoverFrac() float64 {
	if s.opts.DeltaCutover > 0 {
		return s.opts.DeltaCutover
	}
	return 0.25
}

// Mutate applies one delta batch in time proportional to the batch: the
// graph overlay advances (Graph() reflects it) and the batch's seed sets join
// the pending ones until the next Refresh. Nothing is rebuilt and no slab is
// touched here — a drain of B batches costs B overlay edits and one
// materialization. An invalid delta changes nothing.
func (s *Session) Mutate(d graph.Delta) (*graph.DeltaEffect, error) {
	eff, err := s.ed.Apply(d)
	if err != nil || d.Empty() {
		return eff, err
	}
	s.pending = true
	if s.dur != nil && s.primed && !s.wholeNext {
		s.recordDelta(d)
	}
	if !s.primed {
		// No resident state to maintain: the first Refresh runs a full pass
		// over whatever graph is current by then.
		return eff, nil
	}
	s.pendState = growBools(s.pendState, eff.NumNodes)
	s.pendInbox = growBools(s.pendInbox, eff.NumNodes)
	s.pendPinned = growBools(s.pendPinned, eff.NumNodes)
	for _, v := range eff.StateDirty {
		s.pendState[v] = true
	}
	for _, v := range eff.InboxDirty {
		s.pendInbox[v] = true
	}
	if s.anyDegree {
		for _, v := range eff.DegreeChanged {
			s.pendPinned[v] = true
		}
	}
	return eff, nil
}

// Refresh recomputes logits for the current graph and reports which path
// ran. With no pending mutations it returns the resident result without
// running anything (Stats zero, kind delta).
func (s *Session) Refresh() (*Result, RefreshKind, error) {
	g := s.ed.Graph()
	if !s.primed {
		res, err := s.fullPass(g)
		return res, RefreshFull, err
	}
	if !s.pending {
		return s.residentResult(), RefreshDelta, nil
	}
	frontier := s.frontier()
	if float64(s.floodEstimate(g, frontier)) > s.cutoverFrac()*float64(g.NumNodes) {
		res, err := s.fullPass(g)
		return res, RefreshFull, err
	}
	res, err := s.deltaPass(g, frontier)
	return res, RefreshDelta, err
}

// fullPass runs the one-shot driver with layer and message capture enabled,
// so the run doubles as resident-state (re)population — every emitted row is
// the one the pass sent, never recomputed — and clears all pending
// bookkeeping.
func (s *Session) fullPass(g *graph.Graph) (*Result, error) {
	s.ensureSlabs(g)
	o := s.opts
	o.captureLayers = s.layers
	o.captureMsgs = make([]*tensor.Matrix, len(s.msgs))
	for k, e := range s.emits {
		if e {
			o.captureMsgs[k] = s.msgs[k]
		}
	}
	res, err := RunPregel(s.model, g, o)
	if err != nil {
		s.wholeNext = true
		return nil, err
	}
	s.primed = true
	s.clearPending()
	s.persistResident(g, nil, true)
	return res, nil
}

// deltaPass floods the pending seed set through a frontier-driven engine run
// over the resident slabs and returns the refreshed logits.
func (s *Session) deltaPass(g *graph.Graph, frontier []int32) (*Result, error) {
	added := s.growSlabs(g)
	pools := make([]*tensor.Pool, s.opts.NumWorkers)
	for w := range pools {
		pools[w] = tensor.NewPool()
	}
	s.repairMessages(g, added, pools[0]) // the engine has not started: worker 0's pool is idle
	for i := range s.dirtyStep {
		s.dirtyStep[i] = -1
	}
	for v, dirty := range s.pendState {
		if dirty {
			s.dirtyStep[v] = 0 // h^0 changed at mutation time
		}
	}

	o := s.opts
	defer applyTuning(o)()
	part := o.partition(g)
	driver := &deltaDriver{
		model: s.model, g: g, gi: s.ed.GatherIndex(),
		layers: s.layers, msgs: s.msgs, emits: s.emits,
		seedState: s.pendState, seedInbox: s.pendInbox, seedPinned: s.pendPinned,
		dirtyStep: s.dirtyStep, batches: s.batches, pools: pools,
	}
	cfg := pregel.Config{
		NumWorkers:      o.NumWorkers,
		Partitioner:     part,
		MaxSupersteps:   s.model.NumLayers() + 1,
		Bytes:           columnarBytes,
		Parallel:        o.Parallel,
		CheckpointEvery: o.CheckpointEvery,
		Faults:          o.Faults,
		SuperstepHook:   o.SuperstepHook,
		Cancel:          o.Cancel,
		Frontier:        frontier,
	}
	eng := pregel.NewEngine(g, driver, cfg)
	if err := eng.Run(); err != nil {
		s.wholeNext = true
		return nil, err
	}

	res := s.residentResult()
	res.Stats, res.Phases = statsFromMetrics(eng, s.model, residentBytes(g, part, s.model, o.NumWorkers), o.NumWorkers)
	if s.dur != nil {
		s.persistResident(g, s.dirtyRows(g.NumNodes, added), false)
	}
	s.clearPending()
	return res, nil
}

// repairMessages rewrites, in one emit per emitting layer, the resident wire
// messages whose inputs the pending mutations changed outside a pass: h^0
// rewrites (an emitting layer 0 reads the new feature row), out-degree
// changes (every degree-scaled layer's row of that vertex scales by the new
// degree) and vertices added since the last pass (ids >= added), whose zero
// state rows emit a message that need not be zero (GAT's carries the
// projection bias) and that a recompute leaving the row zero would never
// rewrite. Non-emitting layers' slabs alias the state slabs and need
// nothing. A row depends only on the vertex's current state and current
// out-degree, so repairing once per refresh against the materialized graph
// writes the same bits as repairing after every batch would have.
func (s *Session) repairMessages(g *graph.Graph, added int, p *tensor.Pool) {
	var vs []int32
	for k, e := range s.emits {
		if !e {
			continue
		}
		pins := degreeScaled(s.model.Layers[k])
		vs = vs[:0]
		for v := range s.pendState {
			if v >= added || (k == 0 && s.pendState[v]) || (pins && s.pendPinned[v]) {
				vs = append(vs, int32(v))
			}
		}
		if len(vs) == 0 {
			continue
		}
		h := pooledRows(p, s.layers[k], vs)
		emitRows(emitterOf(s.model.Layers[k]), g, s.msgs[k], h, vs, p)
		p.Put(h)
	}
}

// residentResult packages the resident logits slab as a fresh Result.
func (s *Session) residentResult() *Result {
	res := &Result{Logits: s.layers[s.model.NumLayers()].Clone()}
	res.finalize(s.model)
	return res
}

// frontier lists the pending seed vertices (pinned seeds only matter to
// degree-scaled models).
func (s *Session) frontier() []int32 {
	var f []int32
	for v := range s.pendState {
		if s.pendState[v] || s.pendInbox[v] || (s.anyDegree && s.pendPinned[v]) {
			f = append(f, int32(v))
		}
	}
	return f
}

// floodEstimate upper-bounds how many vertices the delta pass could touch:
// an L-expansion out-edge BFS from the seeds, capped implicitly by the
// visited set. The real wave is usually smaller (bitwise-unchanged rows stop
// it), so this errs toward full passes — the safe side of the cutover.
func (s *Session) floodEstimate(g *graph.Graph, frontier []int32) int {
	visited := make([]bool, g.NumNodes)
	cur := append([]int32(nil), frontier...)
	for _, v := range cur {
		visited[v] = true
	}
	count := len(cur)
	for hop := 0; hop < s.model.NumLayers() && len(cur) > 0; hop++ {
		var next []int32
		for _, v := range cur {
			for _, u := range g.OutNeighbors(v) {
				if !visited[u] {
					visited[u] = true
					count++
					next = append(next, u)
				}
			}
		}
		cur = next
	}
	return count
}

// ensureSlabs (re)builds the resident slab set for graph g:
// layers[0] aliases the feature matrix, layers[k] is NumNodes × OutDim(k-1),
// and each emitting layer owns a NumNodes × MsgDim message slab (the others
// alias the state slab — the wire message IS the state).
func (s *Session) ensureSlabs(g *graph.Graph) {
	n := g.NumNodes
	L := s.model.NumLayers()
	if s.layers == nil {
		s.layers = make([]*tensor.Matrix, L+1)
		s.msgs = make([]*tensor.Matrix, L)
	}
	s.layers[0] = g.Features
	for k := 1; k <= L; k++ {
		dim := s.model.Layers[k-1].OutDim()
		if s.layers[k] == nil || s.layers[k].Rows != n {
			s.layers[k] = tensor.New(n, dim)
		}
	}
	for k := 0; k < L; k++ {
		if !s.emits[k] {
			s.msgs[k] = s.layers[k]
			continue
		}
		if s.msgs[k] == nil || s.msgs[k].Rows != n || s.msgs[k] == s.layers[k] {
			s.msgs[k] = tensor.New(n, emitterOf(s.model.Layers[k]).MsgDim())
		}
	}
	s.dirtyStep = growInt32(s.dirtyStep, n)
	s.pendState = growBools(s.pendState, n)
	s.pendInbox = growBools(s.pendInbox, n)
	s.pendPinned = growBools(s.pendPinned, n)
}

// growSlabs points layer 0 at g's feature matrix and extends resident state
// to g's node count, returning the previous count: old rows are preserved,
// new state rows are zero (the correct resident value for a vertex that has
// never computed — its receivers are inbox-dirty and will re-gather
// regardless; repairMessages emits their message rows).
func (s *Session) growSlabs(g *graph.Graph) int {
	n := g.NumNodes
	L := s.model.NumLayers()
	old := s.layers[L].Rows
	s.layers[0] = g.Features
	for k := 1; k <= L; k++ {
		if s.layers[k].Rows < n {
			s.layers[k] = growMatrix(s.layers[k], n)
		}
	}
	for k := 0; k < L; k++ {
		if !s.emits[k] {
			s.msgs[k] = s.layers[k] // re-alias: the state slab may have moved
		} else if s.msgs[k].Rows < n {
			s.msgs[k] = growMatrix(s.msgs[k], n)
		}
	}
	s.dirtyStep = growInt32(s.dirtyStep, n)
	return old
}

func (s *Session) clearPending() {
	for i := range s.pendState {
		s.pendState[i] = false
		s.pendInbox[i] = false
		s.pendPinned[i] = false
	}
	s.pending = false
}

func growMatrix(m *tensor.Matrix, rows int) *tensor.Matrix {
	nm := tensor.New(rows, m.Cols)
	copy(nm.Data, m.Data)
	return nm
}

// growBools extends b to n entries; append's amortized growth keeps a drain
// of node-adding batches from copying the pending sets once per batch.
func growBools(b []bool, n int) []bool {
	if len(b) >= n {
		return b
	}
	return append(b, make([]bool, n-len(b))...)
}

func growInt32(b []int32, n int) []int32 {
	if len(b) >= n {
		return b
	}
	nb := make([]int32, n)
	copy(nb, b)
	return nb
}
