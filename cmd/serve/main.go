// Command serve runs the InferTurbo online inference service: it loads a
// dataset and trained signature once, computes a resident full-graph
// prediction store, and serves per-node lookups plus fresh k-hop queries
// (what-if feature overrides, cold-start virtual nodes) over HTTP/JSON.
//
// Usage:
//
//	serve -data graph.bin -model model.json -addr :8080 \
//	      -workers 16 -max-latency 250ms -queue-depth 64
//
// The service degrades gracefully under pressure: a full admission queue
// sheds with 429 + Retry-After, a fresh query that misses its deadline
// falls back to the resident store (marked stale), and background refreshes
// never block reads.
//
// By default the server runs in incremental mode: POST /v1/mutate stages
// graph deltas (feature updates, new nodes, edge changes) and the next
// refresh recomputes only their L-hop flood against resident state —
// bit-identical to a full pass, proportional to the change set.
// -no-incremental restores full passes everywhere.
//
// -session-dir makes the mutate→refresh pipeline crash-durable: every
// mutation batch appends to a write-ahead log before it is acknowledged, the
// incremental session persists its resident slabs as checkpoint epochs, and
// a restarted process resumes from both — replaying unconsumed mutations as
// one delta pass instead of re-priming, byte-identical to a server that
// never crashed. SIGTERM shuts down gracefully: in-flight requests drain,
// the final session epoch lands, and the WAL is fsynced regardless of
// -checkpoint-sync.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"inferturbo"
	"inferturbo/internal/checkpoint"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
)

func main() {
	var (
		data  = flag.String("data", "graph.bin", "dataset path")
		model = flag.String("model", "model.json", "signature file")
		addr  = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")

		workers  = flag.Int("workers", 16, "partition count for full-graph refresh passes")
		parallel = flag.Bool("parallel", true, "run refresh workers on goroutines (results identical either way)")
		part     = flag.String("partitioner", "hash", "vertex placement for refresh passes: hash | degree | ldg | fennel")

		queryWorkers  = flag.Int("query-workers", 2, "partition count for k-hop query batches")
		queryParallel = flag.Bool("query-parallel", false, "run query workers on goroutines")
		hops          = flag.Int("hops", 0, "k-hop query depth (0 = the model's layer count)")
		maxBatch      = flag.Int("max-batch", 16, "max roots coalesced into one query micro-batch")
		queueDepth    = flag.Int("queue-depth", 64, "admission queue bound; beyond it requests shed with 429")
		maxLatency    = flag.Duration("max-latency", 250*time.Millisecond, "default per-request deadline (the serving SLO window)")
		refreshEvery  = flag.Duration("refresh-every", 0, "periodic refresh interval (0 = on demand via POST /v1/refresh)")
		noIncremental = flag.Bool("no-incremental", false, "disable the incremental delta-refresh session; every refresh is a full pass and /v1/mutate answers 409")

		ckptSync   = flag.String("checkpoint-sync", "always", "durability of -session-dir's epochs and WAL: always (fsync, survives power loss) | never (no fsync; survives process crashes only)")
		sessionDir = flag.String("session-dir", "", "durable session directory: mutations WAL-append before acknowledgment, resident state persists as a base plus links of changed rows, restarts resume and replay (requires incremental mode)")

		dieAt        = flag.Int("die-at", -1, "kill -9 this process at the start of the given superstep of the -die-on-refresh'th pass (crash testing)")
		dieOnRefresh = flag.Int("die-on-refresh", 1, "which full-graph pass -die-at targets (1 = the initial store build)")
		dieOnMutate  = flag.Int("die-on-mutate", 0, "kill -9 this process right after the n'th mutation batch is WAL-durable and staged, before its 202 is written (1-based; 0 = off)")
		dieOnTrunc   = flag.Int("die-on-wal-truncate", 0, "kill -9 this process right before the n'th WAL truncation, after its covering epoch is durable (1-based; 0 = off)")
		dieOnPersist = flag.Int("die-on-slab-persist", 0, "kill -9 this process at the start of the n'th session persist, base or link (1-based; 0 = off)")
	)
	flag.Parse()

	if *sessionDir != "" && *noIncremental {
		// A durable session must never fall back to a lossy mode silently.
		fatalf("-session-dir requires incremental mode; drop -no-incremental")
	}

	g, err := inferturbo.LoadGraphFile(*data)
	if err != nil {
		fatalf("loading %s: %v", *data, err)
	}
	m, err := inferturbo.LoadModelFile(*model)
	if err != nil {
		fatalf("loading %s: %v", *model, err)
	}
	strat, err := inferturbo.PartitionStrategyByName(*part)
	if err != nil {
		fatalf("%v", err)
	}

	refresh := inference.Options{NumWorkers: *workers, Parallel: *parallel, Partitioner: strat}
	switch *ckptSync {
	case "always":
		refresh.CheckpointSync = checkpoint.SyncAlways
	case "never":
		refresh.CheckpointSync = checkpoint.SyncNever
	default:
		fatalf("unknown -checkpoint-sync %q (want always | never)", *ckptSync)
	}
	if *dieAt >= 0 {
		// Passes are counted by watching the superstep sequence restart: a
		// hook step that does not extend the previous pass begins the next
		// one. The hook runs on the engine goroutine before the superstep
		// computes, so the process dies at a fixed point of the pass.
		pass, last := 0, -1
		target, targetPass := *dieAt, *dieOnRefresh
		refresh.SuperstepHook = func(step int) {
			if last == -1 || step <= last {
				pass++
			}
			last = step
			if pass == targetPass && step == target {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	// The -die-on-* flags SIGKILL the process at the durability seams the
	// crash-matrix tests target: after a mutation ack is recoverable, before
	// a WAL truncation, at the start of a slab persist. Each kills on its
	// n'th (1-based) occurrence.
	killAt := func(target int) func() {
		var n atomic.Int64
		return func() {
			if int(n.Add(1)) == target {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	cfg := serve.Config{
		Model: m, Graph: g, Refresh: refresh,
		Hops:         *hops,
		QueryWorkers: *queryWorkers, QueryParallel: *queryParallel,
		MaxBatchSize: *maxBatch, QueueDepth: *queueDepth, MaxLatency: *maxLatency,
		RefreshEvery:       *refreshEvery,
		DisableIncremental: *noIncremental,
		SessionDir:         *sessionDir,
	}
	if *dieOnMutate > 0 {
		kill := killAt(*dieOnMutate)
		cfg.MutateAckHook = func(uint64) { kill() }
	}
	if *dieOnTrunc > 0 {
		kill := killAt(*dieOnTrunc)
		cfg.WALTruncateHook = func(uint64) { kill() }
	}
	if *dieOnPersist > 0 {
		kill := killAt(*dieOnPersist)
		cfg.Refresh.SessionPersistBeginHook = func(uint64) error { kill(); return nil }
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	// The initial pass runs before the socket opens: once the address is
	// printed, the store is resident and /readyz is green.
	if err := s.Start(); err != nil {
		fatalf("initial full-graph pass: %v", err)
	}
	snap := s.Store()
	fmt.Printf("serve: store epoch %d resident (%d nodes, %d supersteps)\n",
		snap.Epoch, g.NumNodes, snap.Stats.Supersteps)
	if *sessionDir != "" {
		ms := s.Metrics()
		fmt.Printf("serve: durable session resumed=%v wal_replayed=%d replay_ms=%.1f refresh=%s\n",
			ms.SessionResumed, ms.WALReplayed, ms.LastReplayMs, ms.LastRefreshKind)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	fmt.Printf("serve: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("serve: %v, shutting down\n", got)
	case err := <-errCh:
		fatalf("http: %v", err)
	}
	// Graceful shutdown: stop accepting, drain in-flight requests (bounded by
	// the serving SLO window plus slack), then close the server — which lands
	// the in-flight session epoch and fsyncs the WAL, so a SIGTERM'd durable
	// server is power-loss safe even at -checkpoint-sync never.
	ctx, cancel := context.WithTimeout(context.Background(), *maxLatency+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: draining http: %v\n", err)
	}
	s.Close()
	fmt.Println("serve: shutdown complete")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
	os.Exit(1)
}
