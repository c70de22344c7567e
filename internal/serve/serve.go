// Package serve is InferTurbo's online inference service: a long-lived
// server that loads graph and model once, keeps the latest full-graph pass
// resident as an immutable prediction store behind an RCU-style atomic swap
// (refreshes never block reads), answers plain-root queries by reading that
// store, and answers cold-start/what-if queries with fresh k-hop
// induced-subgraph inference on the batched compute plane.
//
// Robustness is the design center, and it threads through every request:
//
//   - Executors per core: one query executor per core takes a job the
//     moment it is idle and runs it alone — a copy of the roots' rows out of
//     one store snapshot, or one k-hop pass for a what-if or cold start.
//   - Bounded admission: a fixed-depth queue sheds excess load with 429 +
//     Retry-After instead of growing goroutines without bound.
//   - Deadline propagation: each request's context deadline flows through
//     the executor into the compute plane via inference.Options.Cancel; a
//     pass whose caller's deadline passed aborts at the next superstep.
//   - Graceful degradation: a plain query that misses its deadline falls
//     back to the resident store's answer, marked stale with its epoch.
//   - Panic isolation: a poisoned query 500s alone and the server survives.
//   - Health/readiness gated on store epoch and queue depth.
//   - Incremental refresh: POST /v1/mutate stages graph deltas (feature
//     updates, new nodes, edge changes) without blocking on a running pass;
//     the next refresh drains them into a resident inference.Session and
//     recomputes only the change set's L-hop flood — bit-identical to a
//     full pass, falling back to one when the flood is too large.
//
// A k-hop pass over an unmodified neighborhood is bit-identical to the
// resident store's rows (enforced by the k-hop identity property tests), so
// answering plain roots from the store changes no value, and degradation
// changes freshness, never values.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/tensor"
)

// Config assembles a Server.
type Config struct {
	Model *gas.Model
	Graph *graph.Graph
	// Refresh configures the resident store's passes — the incremental
	// Session's, or the one-shot full pass's when incremental mode is off.
	// Its pregel.FaultPlan is the in-process chaos surface: each refresh
	// forwards the current plan into its pass.
	Refresh inference.Options
	// QueryWorkers is the partition count for what-if and cold-start
	// inference (default 2 — query subgraphs are small).
	QueryWorkers int
	// QueryParallel runs query workers on goroutines.
	QueryParallel bool
	// QueueDepth bounds the admission queue; a full queue sheds with 429
	// (default 64).
	QueueDepth int
	// MaxLatency is the default per-request deadline (default 250ms); a
	// request may override it with deadline_ms.
	MaxLatency time.Duration
	// RefreshEvery re-runs the full-graph pass periodically when > 0.
	RefreshEvery time.Duration
	// DisableIncremental forces every refresh through the one-shot
	// full-graph pass even when the Refresh options would support an
	// incremental Session; POST /v1/mutate then answers 409. Refresh
	// options the Session rejects (the skew strategies and EmitEmbeddings)
	// disable incremental mode implicitly.
	DisableIncremental bool
	// SessionDir makes the mutate→refresh pipeline crash-durable: mutation
	// batches append to a write-ahead log under this directory before they
	// are acknowledged, the incremental session persists its resident slabs
	// as checkpoint epochs under it, and New resumes from both — a restarted
	// server replays unconsumed mutations as one delta pass instead of a
	// full re-prime, with /v1/logits byte-identical to a never-crashed
	// process. Requires incremental mode: combining it with
	// DisableIncremental, or with Refresh options the Session rejects, is a
	// construction error (durability must never silently fall back to losing
	// state). Durability level follows Refresh.CheckpointSync.
	SessionDir string
	// MutateAckHook, when non-nil, runs after a mutation batch has been
	// WAL-appended and staged (i.e. once it is guaranteed recoverable),
	// with the batch's WAL sequence number — the post-mutate-ack SIGKILL
	// seam for the crash tests. Nil outside tests.
	MutateAckHook func(seq uint64)
	// WALTruncateHook, when non-nil, runs on the persister goroutine
	// immediately before the WAL truncation that follows a durable session
	// epoch, with the replay mark being truncated through — the
	// pre-WAL-truncate SIGKILL seam. Nil outside tests.
	WALTruncateHook func(mark uint64)
}

// Snapshot is one immutable full-graph pass result — the resident store.
// Readers load it with a single atomic pointer read; a refresh installs a
// fresh Snapshot with one atomic store and never mutates a published one,
// so lookups are wait-free and always internally consistent.
type Snapshot struct {
	Epoch      int64
	Logits     *tensor.Matrix
	Classes    []int32
	MultiLabel *tensor.Matrix
	Stats      inference.Stats
	// Graph is the graph this pass computed on. Queries validate and induce
	// against it, so answers always agree with the store's epoch even as
	// mutations advance the graph.
	Graph *graph.Graph
	// RefreshKind says which path produced this snapshot ("full" or
	// "delta"); RefreshWall is that pass's wall time (drain included).
	RefreshKind string
	RefreshWall time.Duration
}

// Server is the online inference service. Construct with New, start the
// background machinery with Start, serve s.Handler() over HTTP, stop with
// Close.
type Server struct {
	cfg Config
	// executors is the number of query executors Start runs: one per core
	// the Go scheduler uses, so a query waits only while all of them work.
	executors int

	snap  atomic.Pointer[Snapshot]
	queue chan *job

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	refreshMu sync.Mutex // single-flight: at most one full-graph pass at a time

	// session is the resident incremental-inference state machine, nil when
	// incremental mode is off. It is touched only under refreshMu; mutations
	// stage into the lock-free-for-refresh side buffer below and drain at
	// the start of the next refresh, so POST /v1/mutate never blocks on a
	// running pass.
	session     *inference.Session
	stagedMu    sync.Mutex // guards staged, stagedNodes and walSeq
	staged      []stagedDelta
	stagedNodes int    // node count after every staged delta applies, in order
	walSeq      uint64 // last WAL sequence number assigned (or replayed)

	// Durable-serving state, nil/zero unless Config.SessionDir is set.
	wal            *checkpoint.WAL
	faults         *serveFaults
	sessionResumed bool
	lastReplayNs   atomic.Int64

	m counters

	// execHook, when non-nil, runs on the executor inside a job's panic
	// recovery, before its store read or compute — the test seam for slow
	// and poisoned queries.
	execHook func(j *job)
	// admitHook and countHook, when non-nil, run after a query enters the
	// admission queue and after a counter a test waits on is bumped (a
	// delivered job's metric, a cancel abort, a published refresh): the
	// seams tests block on instead of polling. Set before Start.
	admitHook func()
	countHook func()
}

// counted runs countHook, if set.
func (s *Server) counted() {
	if s.countHook != nil {
		s.countHook()
	}
}

// New validates cfg, applies defaults, and returns an unstarted Server. The
// store is empty (readiness reports 503) until Start's initial refresh.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil || cfg.Graph == nil {
		return nil, fmt.Errorf("serve: Config requires Model and Graph")
	}
	if cfg.Graph.FeatureDim() != cfg.Model.InDim() {
		return nil, fmt.Errorf("serve: graph features dim %d, model expects %d", cfg.Graph.FeatureDim(), cfg.Model.InDim())
	}
	if cfg.QueryWorkers <= 0 {
		cfg.QueryWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 250 * time.Millisecond
	}
	s := &Server{
		cfg:         cfg,
		executors:   runtime.GOMAXPROCS(0),
		queue:       make(chan *job, cfg.QueueDepth),
		stop:        make(chan struct{}),
		stagedNodes: cfg.Graph.NumNodes,
	}
	if cfg.SessionDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	} else if !cfg.DisableIncremental {
		// An incompatible Refresh config (skew strategies, EmitEmbeddings)
		// falls back to the one-shot path; /v1/mutate then
		// reports the server as non-incremental. With SessionDir set the
		// fallback is forbidden — openDurable errors loudly instead.
		if sess, err := inference.NewSession(cfg.Model, cfg.Graph, cfg.Refresh); err == nil {
			s.session = sess
		}
	}
	return s, nil
}

// Incremental reports whether the server accepts mutations and refreshes
// through the resident delta session.
func (s *Server) Incremental() bool { return s.session != nil }

// currentGraph is the graph queries validate against: the latest
// snapshot's (it advances as mutations land), or the configured graph before
// any pass has completed.
func (s *Server) currentGraph() *graph.Graph {
	if snap := s.snap.Load(); snap != nil && snap.Graph != nil {
		return snap.Graph
	}
	return s.cfg.Graph
}

// Start runs the initial refresh synchronously — a full-graph pass, or, for
// a server resumed from SessionDir, one delta pass over the re-staged WAL
// records — and launches the query executors plus the optional periodic
// refresher.
func (s *Server) Start() error {
	if err := s.Refresh(); err != nil {
		return err
	}
	s.wg.Add(s.executors)
	for i := 0; i < s.executors; i++ {
		go s.runExecutor()
	}
	if s.cfg.RefreshEvery > 0 {
		s.wg.Add(1)
		go s.refreshLoop()
	}
	return nil
}

// Close stops the background goroutines and fails any queued requests with
// a shutdown status, then shuts the durable machinery down cleanly: the
// in-flight session epoch drains and the WAL is fsynced regardless of sync
// mode, so a graceful stop is power-loss durable. On a non-durable
// incremental server, acknowledged-but-unrefreshed batches die with the
// process here — they are counted as lost (the observable the WAL exists to
// zero out). Idempotent.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	// The executors have exited; anything a racing handler enqueued afterwards
	// is failed here so no caller waits out its full deadline.
	for {
		select {
		case j := <-s.queue:
			s.finish(j, jobResult{status: 503, errMsg: "server shutting down", metric: metricError})
		default:
			goto drained
		}
	}
drained:
	if s.session != nil {
		s.session.CloseDurable()
	}
	s.stagedMu.Lock()
	pending := len(s.staged)
	s.stagedMu.Unlock()
	if s.wal != nil {
		// Pending batches are WAL-durable: the next start replays them.
		_ = s.wal.Close()
	} else if s.session != nil && pending > 0 {
		s.m.mutationsLost.Add(int64(pending))
	}
}

// Store returns the current resident snapshot, nil before the first
// completed refresh.
func (s *Server) Store() *Snapshot { return s.snap.Load() }

// Ready reports whether the server can take queries: the store holds at
// least one epoch and the admission queue has room.
func (s *Server) Ready() (bool, string) {
	if s.snap.Load() == nil {
		return false, "store empty: no full-graph pass has completed"
	}
	if len(s.queue) >= cap(s.queue) {
		return false, "admission queue full"
	}
	return true, "ok"
}

// Refresh runs one full-graph pass and atomically swaps the result in as
// the new resident snapshot. Concurrent callers serialize; queries keep
// answering from the previous snapshot throughout (including across any
// injected faults or checkpoint replays inside the pass).
func (s *Server) Refresh() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.refreshLocked()
}

// TryRefreshAsync starts a background refresh unless one is already
// running; reports whether a refresh was started.
func (s *Server) TryRefreshAsync() bool {
	if !s.refreshMu.TryLock() {
		return false
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.refreshMu.Unlock()
		_ = s.refreshLocked() // failures are counted and surfaced via /v1/stats
	}()
	return true
}

func (s *Server) refreshLocked() error {
	prev := s.snap.Load()
	start := time.Now()
	res, kind, g, err := s.runRefresh()
	if err != nil {
		s.m.refreshFailures.Add(1)
		return err
	}
	epoch := int64(1)
	if prev != nil {
		epoch = prev.Epoch + 1
	}
	s.snap.Store(&Snapshot{
		Epoch:       epoch,
		Logits:      res.Logits,
		Classes:     res.Classes,
		MultiLabel:  res.MultiLabel,
		Stats:       res.Stats,
		Graph:       g,
		RefreshKind: kind,
		RefreshWall: time.Since(start),
	})
	s.m.refreshes.Add(1)
	s.counted()
	return nil
}

// runRefresh executes one pass behind a recover fence, so a panicking
// refresh degrades to an error (the previous snapshot stays live) instead
// of killing the server. The incremental session drains the staged deltas
// and decides delta-vs-full itself; the one-shot path always runs full.
func (s *Server) runRefresh() (res *inference.Result, kind string, g *graph.Graph, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: refresh panicked: %v", p)
		}
	}()
	if s.session == nil {
		res, err = inference.RunPregel(s.cfg.Model, s.cfg.Graph, s.cfg.Refresh)
		return res, string(inference.RefreshFull), s.cfg.Graph, err
	}

	s.stagedMu.Lock()
	staged := s.staged
	s.staged = nil
	s.stagedMu.Unlock()
	// Chaos harnesses arm fault plans between refreshes; forward the current
	// plan so injected crashes hit the incremental pass too.
	s.session.SetFaults(s.cfg.Refresh.Faults)
	drainStart := time.Now()
	var mark uint64
	for _, sd := range staged {
		if _, merr := s.session.Mutate(sd.d); merr != nil {
			// Stage-time validation leaves only drain-order conflicts (e.g. a
			// removal whose edge an earlier batch already dropped): the batch
			// is rejected, the pass proceeds.
			s.m.mutationsRejected.Add(1)
		} else {
			s.m.mutationsApplied.Add(1)
		}
		// Rejected batches advance the mark too: they are consumed — a
		// restart replaying them would reject them identically.
		mark = sd.seq
	}
	if mark > 0 {
		// The epoch persisted after this pass covers the WAL prefix just
		// drained; onSessionPersist truncates through this mark once (and
		// only once) that epoch is durable.
		s.session.SetReplayMark(mark)
	}
	// One materialization for the whole drain, however many batches it held.
	g = s.session.Graph()
	s.m.graphRebuilds.Store(int64(s.session.GraphRebuilds()))
	if len(staged) > 0 {
		s.m.lastDrainNs.Store(time.Since(drainStart).Nanoseconds())
	}
	// Resync the staging node count to what actually applied, so a rejected
	// batch's phantom node ids don't loosen stage-time validation forever
	// (batches staged during the drain stay counted).
	s.stagedMu.Lock()
	n := g.NumNodes
	for _, sd := range s.staged {
		n += len(sd.d.AddNodes)
	}
	s.stagedNodes = n
	s.stagedMu.Unlock()

	var k inference.RefreshKind
	res, k, err = s.session.Refresh()
	return res, string(k), g, err
}

func (s *Server) refreshLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RefreshEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Refresh()
		}
	}
}
