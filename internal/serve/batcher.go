package serve

import (
	"context"
	"errors"
	"fmt"

	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
)

// job is one admitted query traveling through an executor. Its result
// channel is buffered so whichever side finishes a job never blocks, and
// finish/deliver guarantee exactly one result wins even when the executor
// races a timed-out handler.
type job struct {
	ctx context.Context
	// roots are existing-node ids to answer (validated in-range by the
	// handler).
	roots []int32
	// overrides replaces node features for a what-if query.
	overrides map[int32][]float32
	// cold is a cold-start virtual root.
	cold *graph.VirtualRoot
	res  chan jobResult
}

// plain reports whether the resident store holds this job's answer: a
// lookup of existing, unmodified nodes. What-if overrides and virtual roots
// change what the model sees, so only they compute.
func (j *job) plain() bool { return len(j.overrides) == 0 && j.cold == nil }

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
	// the query missed its deadline.
	Stale bool `json:"stale"`
	// Epoch is the resident-store epoch the answer belongs to: the snapshot
	// a plain root was read from, the one whose graph a what-if or
	// cold-start query was induced from, or the one a degraded answer fell
	// back to.
	Epoch int64 `json:"epoch,omitempty"`
	// Source is "fresh" for an answer for the current epoch — a plain root
	// read from the store or a computed what-if/cold-start row — and
	// "store" for a degraded fallback (and every /v1/nodes lookup).
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

// runExecutor is one query executor; Start runs s.executors of them on the
// shared admission queue. An executor sleeps on the queue and runs one job
// per dequeue: a plain-root job is a copy out of the resident store, a
// what-if or cold-start job one k-hop induced-subgraph pass.
//
// Admission order across executors is not a contract: jobs are independent
// (what-if overrides touch only their own induced copy), so two executors
// may finish queued jobs in either order. Memory is bounded by the executor
// count: at most s.executors induced subgraphs and query engines are alive
// at once, each no larger than the graph.
func (s *Server) runExecutor() {
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
		case j := <-s.queue:
			s.exec(j)
		}
	}
}

// exec answers one job. A job whose deadline expired while queued degrades
// at once; otherwise it runs behind a recover fence, so a poisoned query
// 500s alone and the executor survives.
func (s *Server) exec(j *job) {
	s.m.executed.Add(1)
	if j.ctx.Err() != nil {
		s.finish(j, s.degradeResult(j, "deadline expired while queued"))
		return
	}
	s.finish(j, s.answer(j))
}

// answer runs execHook, then reads a plain job's rows out of the store or
// computes a what-if/cold-start job. A panic in either becomes a 500.
func (s *Server) answer(j *job) (r jobResult) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			r = jobResult{status: 500, errMsg: fmt.Sprintf("query panicked: %v", p), metric: metricError}
		}
	}()
	if s.execHook != nil {
		s.execHook(j)
	}
	if j.plain() {
		return s.storeResult(j, false, "")
	}
	return s.compute(j)
}

// compute answers a what-if or cold-start job with one k-hop pass over the
// current snapshot's graph at the model's depth. The request deadline flows
// into the engine, which polls Cancel each superstep and aborts once it
// has passed.
func (s *Server) compute(j *job) jobResult {
	snap := s.snap.Load() // executors start after the first refresh publishes one
	ind, err := s.induce(snap.Graph, j)
	if err != nil {
		// Induce validates request-derived data; its errors are the
		// caller's (bad neighbor ids, wrong dims).
		return jobResult{status: 400, errMsg: err.Error(), metric: metricError}
	}
	res, err := inference.RunInduced(s.cfg.Model, ind, inference.Options{
		NumWorkers: s.cfg.QueryWorkers,
		Parallel:   s.cfg.QueryParallel,
		Cancel:     j.ctx.Err,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.m.cancelAborts.Add(1)
			s.counted()
			return s.degradeResult(j, "deadline exceeded during compute")
		}
		return jobResult{status: 500, errMsg: err.Error(), metric: metricError}
	}
	var applied int64
	for _, n := range res.Stats.StepActive[1:] { // superstep 0 applies no layer
		applied += n
	}
	s.m.inducedRows.Add(int64(ind.G.NumNodes * s.cfg.Model.NumLayers()))
	s.m.appliedRows.Add(applied)
	if j.ctx.Err() != nil {
		// The pass finished, but too late.
		return s.degradeResult(j, "deadline exceeded during compute")
	}

	answers := make([]Answer, 0, len(j.roots)+1)
	for i, r := range j.roots {
		answers = append(answers, freshAnswer(res, ind.Roots[i], r, snap.Epoch))
	}
	if j.cold != nil {
		answers = append(answers, freshAnswer(res, ind.Virtual, -1, snap.Epoch))
	}
	return jobResult{status: 200, answers: answers, metric: metricFresh}
}

// induce extracts the job's k-hop neighborhood of g and builds the canonical
// executable subgraph. Feature overrides are applied to the induced graph's
// own gathered feature matrix — never to the resident graph.
func (s *Server) induce(g *graph.Graph, j *job) (*graph.Induced, error) {
	roots := j.roots
	if j.cold != nil {
		// The virtual root's neighbors must be present with complete k-1
		// neighborhoods; rooting the BFS at them guarantees it. They follow
		// the requested roots, so ind.Roots[i] is still j.roots[i]'s.
		roots = append([]int32(nil), j.roots...)
		seen := make(map[int32]bool, len(roots)+len(j.cold.InNeighbors))
		for _, r := range roots {
			seen[r] = true
		}
		for _, u := range j.cold.InNeighbors {
			if !seen[u] {
				seen[u] = true
				roots = append(roots, u)
			}
		}
	}
	sub := graph.KHop(g, roots, graph.KHopOptions{Hops: s.cfg.Model.NumLayers()})
	ind, err := sub.Induce(g, j.cold)
	if err != nil {
		return nil, err
	}
	if len(j.overrides) > 0 {
		local := make(map[int32]int32, len(ind.Nodes))
		for id, global := range ind.Nodes {
			if global >= 0 {
				local[global] = int32(id)
			}
		}
		for node, feat := range j.overrides {
			if id, ok := local[node]; ok {
				copy(ind.G.Features.Row(int(id)), feat)
			}
			// An overridden node outside the k-hop neighborhood cannot
			// influence any answer; skipping it is exact, not approximate.
		}
	}
	return ind, nil
}

// freshAnswer copies one node's row out of a completed query pass.
func freshAnswer(res *inference.Result, local, global int32, epoch int64) Answer {
	a := Answer{Node: global, Epoch: epoch, Source: "fresh"}
	a.Logits = append([]float32(nil), res.Logits.Row(int(local))...)
	if res.Classes != nil {
		a.Class = res.Classes[local]
	}
	if res.MultiLabel != nil {
		a.MultiLabel = append([]float32(nil), res.MultiLabel.Row(int(local))...)
	}
	return a
}

// degradeResult answers j from the resident store, marked stale — the bottom
// rung of the degradation ladder for queries that missed their deadline.
// What-if and cold-start queries have no resident answer and fail with 504
// instead. The result is not delivered here, so the HTTP handler can race it
// against the executor through finish.
func (s *Server) degradeResult(j *job, reason string) jobResult {
	if !j.plain() {
		return jobResult{
			status: 504,
			errMsg: reason + " (what-if and cold-start queries have no store fallback)",
			metric: metricError,
		}
	}
	return s.storeResult(j, true, reason)
}

// storeResult answers a plain job's roots out of one snapshot, so every
// row of a reply belongs to the same epoch: fresh when the executor reads
// it, stale when it stands in for a missed deadline.
func (s *Server) storeResult(j *job, stale bool, reason string) jobResult {
	snap := s.snap.Load()
	if snap == nil {
		msg := "resident store empty"
		if reason != "" {
			msg = reason + "; " + msg
		}
		return jobResult{status: 503, errMsg: msg, metric: metricError}
	}
	source, metric := "fresh", metricFresh
	if stale {
		source, metric = "store", metricDegraded
	}
	answers := make([]Answer, len(j.roots))
	for i, r := range j.roots {
		answers[i] = storeAnswer(snap, r, source, stale)
	}
	return jobResult{status: 200, answers: answers, metric: metric}
}

// storeAnswer reads one node out of an immutable snapshot.
func storeAnswer(snap *Snapshot, node int32, source string, stale bool) Answer {
	a := Answer{Node: node, Stale: stale, Epoch: snap.Epoch, Source: source}
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
