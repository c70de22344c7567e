package serve

import "sync/atomic"

// counters aggregates serving metrics. All fields are independent atomics:
// consistency across fields is not needed, only monotonicity per field.
type counters struct {
	requests        atomic.Int64 // queries accepted into a handler
	shed            atomic.Int64 // rejected 429 at the admission queue
	fresh           atomic.Int64 // answered by a k-hop compute pass
	degraded        atomic.Int64 // answered from the store after a missed deadline
	storeServed     atomic.Int64 // plain per-node store lookups
	errors          atomic.Int64 // queries that failed with an error status
	panics          atomic.Int64 // compute panics contained by isolation
	batches         atomic.Int64 // micro-batches executed
	batchedJobs     atomic.Int64 // jobs carried by those batches
	cancelAborts    atomic.Int64 // passes aborted mid-run by deadline propagation
	inducedRows     atomic.Int64 // completed query passes: induced nodes x layers
	appliedRows     atomic.Int64 // completed query passes: rows a layer was applied to
	refreshes       atomic.Int64 // successful refresh passes (full or delta)
	refreshFailures atomic.Int64

	mutations            atomic.Int64 // delta batches staged via /v1/mutate
	mutationsApplied     atomic.Int64 // staged batches a refresh drain applied
	mutationsRejected    atomic.Int64 // staged batches the session refused at drain
	mutationsUnsupported atomic.Int64 // mutations 409-refused in non-incremental mode (never staged, never lost)
	mutationsLost        atomic.Int64 // acked batches dropped at Close on a WAL-less incremental server
	graphRebuilds        atomic.Int64 // graph snapshots the session has materialized (gauge of its counter)
	lastDrainNs          atomic.Int64 // last non-empty drain: staged batches → session + one materialization

	walAppendFailures      atomic.Int64 // mutations refused because the WAL append failed
	walReplayed            atomic.Int64 // WAL records re-staged at startup
	walTruncSkipped        atomic.Int64 // truncations skipped by an injected wal-truncate fault
	walTruncFailures       atomic.Int64 // truncations that errored (records linger; replay dedups)
	sessionEpochs          atomic.Int64 // durable session epochs persisted
	sessionPersistFailures atomic.Int64 // session epoch persists aborted or failed
}

// metricKind tags a jobResult with the counter to bump when it is actually
// delivered — the delivery point is the only increment site, so a result
// raced between the batcher and a timed-out handler is counted exactly once.
type metricKind int

const (
	metricNone metricKind = iota
	metricFresh
	metricDegraded
	metricError
)

// Stats is the JSON shape of /v1/stats.
type Stats struct {
	Epoch      int64 `json:"epoch"`
	Ready      bool  `json:"ready"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	// QueryExecutors is the number of batch executors answering /v1/query
	// (GOMAXPROCS at construction): the server holds at most this many
	// batches of MaxBatchSize roots in compute, plus QueueCap queued jobs.
	QueryExecutors int `json:"query_executors"`

	Requests     int64 `json:"requests"`
	Shed         int64 `json:"shed"`
	Fresh        int64 `json:"fresh"`
	Degraded     int64 `json:"degraded"`
	StoreServed  int64 `json:"store_served"`
	Errors       int64 `json:"errors"`
	Panics       int64 `json:"panics"`
	Batches      int64 `json:"batches"`
	BatchedJobs  int64 `json:"batched_jobs"`
	CancelAborts int64 `json:"cancel_aborts"`
	// QueryInducedRows sums induced nodes x layers over completed query
	// passes; QueryAppliedRows sums the rows those passes applied a layer
	// to. 1 - applied/induced is the share depth pruning skipped.
	QueryInducedRows int64 `json:"query_induced_rows"`
	QueryAppliedRows int64 `json:"query_applied_rows"`

	Refreshes       int64 `json:"refreshes"`
	RefreshFailures int64 `json:"refresh_failures"`
	// Recoveries reflects the CURRENT snapshot's pass: the injected crashes
	// it recovered from in-process.
	Recoveries int `json:"recoveries"`

	// Incremental-mode observables. LastRefreshKind/LastRefreshMs describe
	// the pass behind the current snapshot ("full" or "delta"); PendingDeltas
	// counts staged batches awaiting the next refresh.
	Incremental       bool    `json:"incremental"`
	Mutations         int64   `json:"mutations"`
	MutationsApplied  int64   `json:"mutations_applied"`
	MutationsRejected int64   `json:"mutations_rejected"`
	PendingDeltas     int     `json:"pending_deltas"`
	LastRefreshKind   string  `json:"last_refresh_kind,omitempty"`
	LastRefreshMs     float64 `json:"last_refresh_ms"`
	// GraphRebuilds counts graph materializations — one per refresh that
	// drained at least one applied batch, however many it drained.
	// LastDrainMs is what the most recent non-empty drain cost before its
	// pass began: the staged batches folded into the session plus that one
	// materialization.
	GraphRebuilds int64   `json:"graph_rebuilds"`
	LastDrainMs   float64 `json:"last_drain_ms"`

	// Mutation-loss accounting. Unsupported counts 409-refused mutations on
	// a non-incremental server (refused before staging — never lost); Lost
	// counts acknowledged batches a WAL-less incremental server dropped at
	// shutdown. A durable server keeps Lost at zero by construction.
	MutationsUnsupported int64 `json:"mutations_unsupported"`
	MutationsLost        int64 `json:"mutations_lost"`

	// Durable-session observables, meaningful when Durable is true.
	// WALRecords/WALBytes gauge the live (unconsumed) log; LastReplayMs is
	// the startup WAL replay's wall time; SessionResumed says this process
	// reconstructed its session from a persisted epoch rather than priming
	// cold.
	Durable                bool    `json:"durable"`
	WALRecords             int     `json:"wal_records"`
	WALBytes               int64   `json:"wal_bytes"`
	WALAppends             int64   `json:"wal_appends"`
	WALAppendFailures      int64   `json:"wal_append_failures"`
	WALReplayed            int64   `json:"wal_replayed"`
	WALTruncations         int64   `json:"wal_truncations"`
	WALTruncSkipped        int64   `json:"wal_trunc_skipped"`
	LastReplayMs           float64 `json:"last_replay_ms"`
	SessionResumed         bool    `json:"session_resumed"`
	SessionEpochs          int64   `json:"session_epochs"`
	SessionPersistFailures int64   `json:"session_persist_failures"`
	SessionPersistMs       float64 `json:"session_persist_ms"`
	// SessionEpochsSuperseded counts resident states a newer refresh captured
	// over before their epoch write began (the persister was still busy with
	// an older one); the newer epoch covers them.
	SessionEpochsSuperseded int64 `json:"session_epochs_superseded"`
	// SessionEpochs counts bases and links alike. SessionLinks gauges the
	// links written since the newest base, SessionFolds counts bases
	// written over a non-empty chain, and SessionEpochLastBytes is the size
	// of the newest base or link.
	SessionLinks          int64 `json:"session_links"`
	SessionFolds          int64 `json:"session_folds"`
	SessionEpochLastBytes int64 `json:"session_epoch_last_bytes"`
	// ResumeLoadMs / ResumeGraphMs / ResumeSlabsMs / ResumeChainMs
	// decompose the startup session resume: base read plus CRC, graph
	// decode, slab decode, and the chain of links read and re-applied. All
	// zero when the session started cold.
	ResumeLoadMs  float64 `json:"resume_load_ms"`
	ResumeGraphMs float64 `json:"resume_graph_ms"`
	ResumeSlabsMs float64 `json:"resume_slabs_ms"`
	ResumeChainMs float64 `json:"resume_chain_ms"`
}

// Metrics assembles a consistent-enough view of the serving counters.
func (s *Server) Metrics() Stats {
	st := Stats{
		QueueDepth:     len(s.queue),
		QueueCap:       cap(s.queue),
		QueryExecutors: s.executors,
		Requests:       s.m.requests.Load(),
		Shed:           s.m.shed.Load(),
		Fresh:          s.m.fresh.Load(),
		Degraded:       s.m.degraded.Load(),
		StoreServed:    s.m.storeServed.Load(),
		Errors:         s.m.errors.Load(),
		Panics:         s.m.panics.Load(),
		Batches:        s.m.batches.Load(),
		BatchedJobs:    s.m.batchedJobs.Load(),
		CancelAborts:   s.m.cancelAborts.Load(),

		QueryInducedRows: s.m.inducedRows.Load(),
		QueryAppliedRows: s.m.appliedRows.Load(),

		Refreshes:       s.m.refreshes.Load(),
		RefreshFailures: s.m.refreshFailures.Load(),

		Incremental:       s.session != nil,
		Mutations:         s.m.mutations.Load(),
		MutationsApplied:  s.m.mutationsApplied.Load(),
		MutationsRejected: s.m.mutationsRejected.Load(),
		GraphRebuilds:     s.m.graphRebuilds.Load(),
		LastDrainMs:       float64(s.m.lastDrainNs.Load()) / 1e6,

		MutationsUnsupported: s.m.mutationsUnsupported.Load(),
		MutationsLost:        s.m.mutationsLost.Load(),
	}
	s.stagedMu.Lock()
	st.PendingDeltas = len(s.staged)
	s.stagedMu.Unlock()
	if s.wal != nil {
		st.Durable = true
		st.WALRecords = s.wal.Records()
		st.WALBytes = s.wal.Bytes()
		st.WALAppends = s.wal.Appended()
		st.WALTruncations = s.wal.Truncations()
		st.WALAppendFailures = s.m.walAppendFailures.Load()
		st.WALReplayed = s.m.walReplayed.Load()
		st.WALTruncSkipped = s.m.walTruncSkipped.Load()
		st.LastReplayMs = float64(s.lastReplayNs.Load()) / 1e6
		st.SessionResumed = s.sessionResumed
		st.SessionEpochs = s.m.sessionEpochs.Load()
		st.SessionPersistFailures = s.m.sessionPersistFailures.Load()
		ds := s.session.DurableStats()
		st.SessionPersistMs = float64(ds.LastWallNs) / 1e6
		st.SessionEpochsSuperseded = ds.Superseded
		st.SessionLinks = ds.Links
		st.SessionFolds = ds.Folds
		st.SessionEpochLastBytes = ds.LastBytes
		rt := s.session.ResumeTiming()
		st.ResumeLoadMs = float64(rt.LoadNs) / 1e6
		st.ResumeGraphMs = float64(rt.GraphNs) / 1e6
		st.ResumeSlabsMs = float64(rt.SlabsNs) / 1e6
		st.ResumeChainMs = float64(rt.ChainNs) / 1e6
	}
	st.Ready, _ = s.Ready()
	if snap := s.snap.Load(); snap != nil {
		st.Epoch = snap.Epoch
		st.Recoveries = snap.Stats.Recoveries
		st.LastRefreshKind = snap.RefreshKind
		st.LastRefreshMs = float64(snap.RefreshWall) / 1e6
	}
	return st
}
