package serve

import (
	"context"
	"errors"
	"fmt"

	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
)

// job is one admitted query traveling through the batcher. Its result
// channel is buffered so whichever side finishes a job never blocks, and
// finish/deliver guarantee exactly one result wins even when the batcher
// races a timed-out handler.
type job struct {
	ctx context.Context
	// roots are existing-node ids to answer (validated in-range by the
	// handler).
	roots []int32
	// overrides replaces node features for a what-if query. Forces a
	// singleton batch: overridden features must not leak into batch mates'
	// answers.
	overrides map[int32][]float32
	// cold is a cold-start virtual root; also forces a singleton batch.
	cold *graph.VirtualRoot
	res  chan jobResult
}

// singleton reports whether the job must execute alone: overrides and
// virtual roots mutate the induced subgraph, so sharing one with other jobs
// would contaminate their answers.
func (j *job) singleton() bool { return len(j.overrides) > 0 || j.cold != nil }

// pureRoots reports whether the store can stand in for this job's answer —
// only lookups of existing, unmodified nodes have a resident fallback.
func (j *job) pureRoots() bool { return !j.singleton() }

type jobResult struct {
	status  int
	answers []Answer
	errMsg  string
	metric  metricKind
}

// Answer is one node's prediction in a query response.
type Answer struct {
	// Node is the global node id, or -1 for a cold-start virtual root.
	Node   int32     `json:"node"`
	Class  int32     `json:"class"`
	Logits []float32 `json:"logits"`
	// MultiLabel carries thresholded {0,1} predictions for multi-label
	// models.
	MultiLabel []float32 `json:"multi_label,omitempty"`
	// Stale marks a degraded answer served from the resident store after
	// the fresh pass missed the request deadline; Epoch says which store.
	Stale bool `json:"stale"`
	// Epoch is the resident-store epoch for store-served answers, 0 for
	// fresh compute.
	Epoch int64 `json:"epoch,omitempty"`
	// Source is "fresh" or "store".
	Source string `json:"source"`
}

// deliver offers r as the job's result; exactly one deliver per job wins.
func (j *job) deliver(r jobResult) bool {
	select {
	case j.res <- r:
		return true
	default:
		return false
	}
}

// finish delivers r and counts its metric only if this was the winning
// delivery.
func (s *Server) finish(j *job, r jobResult) {
	if !j.deliver(r) {
		return
	}
	switch r.metric {
	case metricFresh:
		s.m.fresh.Add(1)
	case metricDegraded:
		s.m.degraded.Add(1)
	case metricError:
		s.m.errors.Add(1)
	}
	s.counted()
}

// runBatcher is one batch executor; Start runs s.executors of them on the
// shared admission queue. An executor sleeps on the queue, and on the first
// arrival takes — without waiting — whatever else is already queued, up to
// MaxBatchSize roots, and runs the batch: a lone query dispatches at once,
// and batches grow only while every executor is busy computing. Singleton
// jobs (what-if / cold-start) execute alone; one met mid-drain closes the
// open batch first, then runs by itself.
//
// Admission order across executors is not a contract: jobs are independent
// (what-if overrides touch only their own induced copy), so two executors
// may finish queued jobs in either order. Memory is bounded by the executor
// count: at most s.executors induced subgraphs and query engines are alive
// at once, each no larger than the graph.
func (s *Server) runBatcher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			// Drain so queued callers fail fast instead of riding out their
			// deadlines.
			for {
				select {
				case j := <-s.queue:
					s.finish(j, jobResult{status: 503, errMsg: "server shutting down", metric: metricError})
				default:
					return
				}
			}
		case first := <-s.queue:
			if first.singleton() {
				s.execBatch([]*job{first})
				continue
			}
			batch := []*job{first}
			size := len(first.roots)
		collect:
			for size < s.cfg.MaxBatchSize {
				select {
				case j := <-s.queue:
					if j.singleton() {
						s.execBatch(batch)
						batch = []*job{j}
						break collect
					}
					batch = append(batch, j)
					size += len(j.roots)
				default:
					break collect
				}
			}
			s.execBatch(batch)
		}
	}
}

// execBatch answers every job in batch: members whose deadline already
// expired degrade to the store immediately, the rest share one canonical
// induced subgraph and one compute pass. A panic in the shared pass is
// isolated by splitting the batch and retrying members individually, so one
// poisoned query cannot take its batch mates (or the server) down.
func (s *Server) execBatch(batch []*job) {
	s.m.batches.Add(1)
	s.m.batchedJobs.Add(int64(len(batch)))

	live := batch[:0:len(batch)]
	for _, j := range batch {
		if j.ctx.Err() != nil {
			s.degrade(j, "deadline expired while queued")
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}

	ind, rootLocal, err := s.induce(live)
	if err != nil {
		// Induce validates request-derived data; its errors are the
		// caller's (bad neighbor ids, wrong dims).
		for _, j := range live {
			s.finish(j, jobResult{status: 400, errMsg: err.Error(), metric: metricError})
		}
		return
	}

	res, err, panicked := s.compute(live, ind)
	if panicked {
		s.m.panics.Add(1)
		if len(live) > 1 {
			for _, j := range live {
				s.execBatch([]*job{j})
			}
			return
		}
		s.finish(live[0], jobResult{status: 500, errMsg: "query compute panicked: " + err.Error(), metric: metricError})
		return
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Every live member's deadline expired mid-pass and the engine
			// aborted at a superstep boundary: degrade them all.
			s.m.cancelAborts.Add(1)
			s.counted()
			for _, j := range live {
				s.degrade(j, "deadline exceeded during compute")
			}
			return
		}
		for _, j := range live {
			s.finish(j, jobResult{status: 500, errMsg: err.Error(), metric: metricError})
		}
		return
	}
	var applied int64
	for _, n := range res.Stats.StepActive[1:] { // superstep 0 applies no layer
		applied += n
	}
	s.m.inducedRows.Add(int64(ind.G.NumNodes * s.cfg.Model.NumLayers()))
	s.m.appliedRows.Add(applied)

	for _, j := range live {
		if j.ctx.Err() != nil {
			// The pass finished, but too late for this member.
			s.degrade(j, "deadline exceeded during compute")
			continue
		}
		answers := make([]Answer, 0, len(j.roots)+1)
		for _, r := range j.roots {
			answers = append(answers, s.freshAnswer(res, rootLocal[r], r))
		}
		if j.cold != nil {
			answers = append(answers, s.freshAnswer(res, ind.Virtual, -1))
		}
		s.finish(j, jobResult{status: 200, answers: answers, metric: metricFresh})
	}
}

// induce merges the live jobs' roots (plus any cold-start neighbors) into
// one deduplicated root set, extracts the k-hop neighborhood, and builds the
// canonical executable subgraph. Feature overrides are applied to the
// induced graph's own gathered feature matrix — never to the resident
// graph.
func (s *Server) induce(live []*job) (*graph.Induced, map[int32]int32, error) {
	var uniq []int32
	seen := make(map[int32]bool)
	add := func(r int32) {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	var cold *graph.VirtualRoot
	for _, j := range live {
		for _, r := range j.roots {
			add(r)
		}
		if j.cold != nil {
			cold = j.cold
			// The virtual root's neighbors must be present with complete
			// k-1 neighborhoods; rooting the BFS at them guarantees it.
			for _, u := range j.cold.InNeighbors {
				add(u)
			}
		}
	}

	// One consistent graph for extraction and induction: the snapshot's,
	// which advances as mutations land (node ids only ever grow, so roots
	// validated against an older epoch stay valid).
	g := s.currentGraph()
	sub := graph.KHop(g, uniq, graph.KHopOptions{Hops: s.hops})
	ind, err := sub.Induce(g, cold)
	if err != nil {
		return nil, nil, err
	}
	rootLocal := make(map[int32]int32, len(uniq))
	for i, r := range uniq {
		rootLocal[r] = ind.Roots[i]
	}

	if len(live) == 1 && len(live[0].overrides) > 0 {
		local := make(map[int32]int32, len(ind.Nodes))
		for id, global := range ind.Nodes {
			if global >= 0 {
				local[global] = int32(id)
			}
		}
		for node, feat := range live[0].overrides {
			if id, ok := local[node]; ok {
				copy(ind.G.Features.Row(int(id)), feat)
			}
			// An overridden node outside the k-hop neighborhood cannot
			// influence any answer; skipping it is exact, not approximate.
		}
	}
	return ind, rootLocal, nil
}

// compute runs the shared pass with deadline propagation: the engine polls
// Cancel each superstep and aborts only once every live member's context is
// done — one surviving deadline keeps the whole batch running so its answer
// stays fresh. The recover fence converts a poisoned query's panic into a
// report the caller uses to split the batch.
func (s *Server) compute(live []*job, ind *graph.Induced) (res *inference.Result, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			res, err, panicked = nil, fmt.Errorf("%v", p), true
		}
	}()
	if s.execHook != nil {
		s.execHook(live)
	}
	cancel := func() error {
		for _, j := range live {
			if j.ctx.Err() == nil {
				return nil
			}
		}
		return context.Canceled
	}
	res, err = inference.RunInduced(s.cfg.Model, ind, inference.Options{
		NumWorkers: s.cfg.QueryWorkers,
		Parallel:   s.cfg.QueryParallel,
		Cancel:     cancel,
	})
	return res, err, false
}

// freshAnswer scatters one node's row out of a completed pass.
func (s *Server) freshAnswer(res *inference.Result, local int32, global int32) Answer {
	a := Answer{Node: global, Source: "fresh"}
	a.Logits = append([]float32(nil), res.Logits.Row(int(local))...)
	if res.Classes != nil {
		a.Class = res.Classes[local]
	}
	if res.MultiLabel != nil {
		a.MultiLabel = append([]float32(nil), res.MultiLabel.Row(int(local))...)
	}
	return a
}

// degrade answers j from the resident store, marked stale — the bottom rung
// of the degradation ladder for queries that missed their deadline. What-if
// and cold-start queries have no resident answer and fail with 504 instead.
func (s *Server) degrade(j *job, reason string) {
	s.finish(j, s.degradeResult(j, reason))
}

// degradeResult builds the store-fallback result without delivering it, so
// the HTTP handler can race it against the batcher through finish.
func (s *Server) degradeResult(j *job, reason string) jobResult {
	if !j.pureRoots() {
		return jobResult{
			status: 504,
			errMsg: reason + " (what-if and cold-start queries have no store fallback)",
			metric: metricError,
		}
	}
	snap := s.snap.Load()
	if snap == nil {
		return jobResult{status: 503, errMsg: reason + "; resident store empty", metric: metricError}
	}
	answers := make([]Answer, len(j.roots))
	for i, r := range j.roots {
		answers[i] = storeAnswer(snap, r, true)
	}
	return jobResult{status: 200, answers: answers, metric: metricDegraded}
}

// storeAnswer reads one node out of an immutable snapshot.
func storeAnswer(snap *Snapshot, node int32, stale bool) Answer {
	a := Answer{Node: node, Stale: stale, Epoch: snap.Epoch, Source: "store"}
	a.Logits = append([]float32(nil), snap.Logits.Row(int(node))...)
	if snap.Classes != nil {
		a.Class = snap.Classes[node]
	}
	if snap.MultiLabel != nil {
		a.MultiLabel = append([]float32(nil), snap.MultiLabel.Row(int(node))...)
	}
	return a
}

// retryAfter is the Retry-After header value for shed requests: the
// header's resolution is whole seconds, and a shed queue drains in far less.
const retryAfter = "1"
