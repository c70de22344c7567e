package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
)

// maxBodyBytes bounds a query body; a request larger than this is hostile
// or misrouted, not a workload.
const maxBodyBytes = 8 << 20

// QueryRequest is the JSON body of POST /v1/query.
type QueryRequest struct {
	// Roots are existing node ids to answer.
	Roots []int32 `json:"roots"`
	// DeadlineMs overrides the server's MaxLatency deadline for this
	// request; 0 means the default.
	DeadlineMs int `json:"deadline_ms"`
	// Overrides maps node id -> replacement feature vector for a what-if
	// query (keys are strings because JSON objects require it).
	Overrides map[string][]float32 `json:"overrides,omitempty"`
	// ColdStart describes a node not in the graph.
	ColdStart *ColdStartRequest `json:"cold_start,omitempty"`
}

// ColdStartRequest describes a cold-start virtual node.
type ColdStartRequest struct {
	Features     []float32   `json:"features"`
	InNeighbors  []int32     `json:"in_neighbors"`
	EdgeFeatures [][]float32 `json:"edge_features,omitempty"`
}

// QueryResponse is the JSON body of a query answer. For cold-start queries
// the virtual node's answer is last, with Node == -1.
type QueryResponse struct {
	Answers []Answer `json:"answers,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// MutateRequest is the JSON body of POST /v1/mutate: one delta batch to
// stage for the next incremental refresh. Added edges may reference nodes
// introduced by add_nodes in the same (or an earlier staged) batch.
type MutateRequest struct {
	Features    []NodeFeatureUpdate `json:"features,omitempty"`
	AddNodes    []NewNode           `json:"add_nodes,omitempty"`
	AddEdges    []NewEdge           `json:"add_edges,omitempty"`
	RemoveEdges []EdgeRef           `json:"remove_edges,omitempty"`
	// Refresh kicks a background refresh after staging; the response's
	// refresh field says whether one started or was already running.
	Refresh bool `json:"refresh,omitempty"`
}

// NodeFeatureUpdate replaces one existing node's feature row.
type NodeFeatureUpdate struct {
	Node     int32     `json:"node"`
	Features []float32 `json:"features"`
}

// NewNode appends a node; its id is assigned at stage time and returned in
// the response's new_nodes (in add_nodes order).
type NewNode struct {
	Features []float32 `json:"features"`
}

// NewEdge appends a directed edge; features are required exactly when the
// graph carries edge attributes.
type NewEdge struct {
	Src      int32     `json:"src"`
	Dst      int32     `json:"dst"`
	Features []float32 `json:"features,omitempty"`
}

// EdgeRef names a directed (src, dst) pair; removal drops every edge
// between the pair.
type EdgeRef struct {
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
}

// MutateResponse reports what POST /v1/mutate staged.
type MutateResponse struct {
	// PendingDeltas counts staged batches awaiting a refresh, this one
	// included.
	PendingDeltas int `json:"pending_deltas"`
	// NewNodes are the ids assigned to add_nodes entries, in order.
	NewNodes []int32 `json:"new_nodes,omitempty"`
	// Refresh is "started" or "already running" when the request asked for
	// one, empty otherwise.
	Refresh string `json:"refresh,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	GET  /healthz       — liveness (process up)
//	GET  /readyz        — readiness (store epoch present, queue has room)
//	GET  /v1/nodes/{id} — resident-store lookup for one node
//	POST /v1/query      — roots from the store; what-if / cold-start by k-hop inference
//	GET  /v1/stats      — serving counters + store epoch
//	GET  /v1/logits     — raw little-endian float32 store dump (bit-level audits)
//	POST /v1/refresh    — kick a background refresh pass
//	POST /v1/mutate     — stage a graph delta for the next incremental refresh
//
// Every handler runs behind a recover fence: a panicking request 500s alone
// while the server and all in-flight work survive.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/nodes/{id}", s.handleNode)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/logits", s.handleLogits)
	mux.HandleFunc("POST /v1/refresh", s.handleRefresh)
	mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	return s.withRecovery(mux)
}

func (s *Server) withRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					QueryResponse{Error: fmt.Sprintf("internal error: %v", p)})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.Ready(); !ok {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, QueryResponse{Error: "resident store empty"})
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "node id must be an integer"})
		return
	}
	if id < 0 || int(id) >= snap.Logits.Rows {
		writeJSON(w, http.StatusNotFound,
			QueryResponse{Error: fmt.Sprintf("node %d outside [0,%d)", id, snap.Logits.Rows)})
		return
	}
	s.m.storeServed.Add(1)
	writeJSON(w, http.StatusOK, storeAnswer(snap, int32(id), "store", false))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleLogits streams the resident store's logits as raw little-endian
// float32 — the chaos harness compares these bytes across crash/resume to
// prove bit-identical recovery.
func (s *Server) handleLogits(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, QueryResponse{Error: "resident store empty"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Store-Epoch", strconv.FormatInt(snap.Epoch, 10))
	w.Header().Set("X-Rows", strconv.Itoa(snap.Logits.Rows))
	w.Header().Set("X-Cols", strconv.Itoa(snap.Logits.Cols))
	buf := make([]byte, 4*len(snap.Logits.Data))
	for i, f := range snap.Logits.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	_, _ = w.Write(buf)
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if !s.TryRefreshAsync() {
		writeJSON(w, http.StatusConflict, map[string]string{"status": "refresh already running"})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "refresh started"})
}

// handleMutate stages one delta batch. Staging never blocks on a running
// refresh — the batch lands in a side buffer the next refresh drains into
// the resident session — so mutation ingest stays responsive while a pass
// computes. Validation happens here, against the node count every earlier
// staged batch leaves behind, so drains apply cleanly in order.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.session == nil {
		s.m.mutationsUnsupported.Add(1)
		writeJSON(w, http.StatusConflict,
			MutateResponse{Error: "incremental mode disabled: this server refreshes by full passes only — " +
				"the mutation was rejected before staging, nothing was acknowledged and nothing is lost; " +
				"re-send it to a server running with incremental refresh enabled"})
		return
	}
	var req MutateRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = decodeMutate(body, &req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, MutateResponse{Error: "bad request body: " + err.Error()})
		return
	}
	d := graph.Delta{}
	for _, f := range req.Features {
		d.Features = append(d.Features, graph.FeatureUpdate{Node: f.Node, Features: f.Features})
	}
	for _, a := range req.AddNodes {
		d.AddNodes = append(d.AddNodes, graph.NodeAdd{Features: a.Features})
	}
	for _, e := range req.AddEdges {
		d.AddEdges = append(d.AddEdges, graph.EdgeAdd{Src: e.Src, Dst: e.Dst, Features: e.Features})
	}
	for _, e := range req.RemoveEdges {
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgeKey{Src: e.Src, Dst: e.Dst})
	}
	if d.Empty() {
		writeJSON(w, http.StatusBadRequest, MutateResponse{Error: "empty delta: nothing to mutate"})
		return
	}

	// Encoding needs no shared state: only the sequence assignment, the
	// append and the staging are ordered by stagedMu.
	var payload []byte
	if s.wal != nil {
		payload = encodeDelta(nil, d)
	}

	s.stagedMu.Lock()
	if msg := s.validateDeltaLocked(d); msg != "" {
		s.stagedMu.Unlock()
		writeJSON(w, http.StatusBadRequest, MutateResponse{Error: msg})
		return
	}
	// Durability boundary: the batch reaches the WAL before it is staged or
	// acknowledged, under stagedMu so WAL order equals staged order. A failed
	// append refuses the mutation outright — the client knows nothing was
	// staged, so nothing acknowledged can ever be lost.
	var seq uint64
	if s.wal != nil {
		seq = s.walSeq + 1
		var aerr error
		if s.faults.fire(pregel.FaultWALAppend) {
			aerr = fmt.Errorf("injected wal-append fault")
		} else {
			aerr = s.wal.Append(seq, payload)
		}
		if aerr != nil {
			s.stagedMu.Unlock()
			s.m.walAppendFailures.Add(1)
			writeJSON(w, http.StatusInternalServerError,
				MutateResponse{Error: "write-ahead log append failed: mutation not staged, not acknowledged — nothing is lost; retry: " + aerr.Error()})
			return
		}
		s.walSeq = seq
	}
	var newIDs []int32
	for i := range d.AddNodes {
		newIDs = append(newIDs, int32(s.stagedNodes+i))
	}
	s.staged = append(s.staged, stagedDelta{seq: seq, d: d})
	s.stagedNodes += len(d.AddNodes)
	pending := len(s.staged)
	s.stagedMu.Unlock()
	s.m.mutations.Add(1)
	if hook := s.cfg.MutateAckHook; hook != nil {
		hook(seq)
	}

	resp := MutateResponse{PendingDeltas: pending, NewNodes: newIDs}
	if req.Refresh {
		if s.TryRefreshAsync() {
			resp.Refresh = "started"
		} else {
			resp.Refresh = "already running"
		}
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// validateDeltaLocked is the stage-time boundary check, mirroring
// graph.Editor.Apply's validation against the node count every earlier staged
// batch leaves behind (feature and edge-feature dimensions never change
// across deltas, so the config graph's are authoritative). Only drain-order
// conflicts — a removal whose edge an earlier batch already dropped — can
// still fail later.
func (s *Server) validateDeltaLocked(d graph.Delta) string {
	old := s.stagedNodes
	n := old + len(d.AddNodes) // added edges may reference same-batch nodes
	fdim := s.cfg.Graph.FeatureDim()
	for _, f := range d.Features {
		if int(f.Node) < 0 || int(f.Node) >= old {
			return fmt.Sprintf("feature update for node %d outside [0,%d)", f.Node, old)
		}
		if len(f.Features) != fdim {
			return fmt.Sprintf("feature update for node %d has dim %d, graph features are %d", f.Node, len(f.Features), fdim)
		}
	}
	for i, a := range d.AddNodes {
		if len(a.Features) != fdim {
			return fmt.Sprintf("add_nodes[%d] has dim %d, graph features are %d", i, len(a.Features), fdim)
		}
	}
	edim := 0
	if s.cfg.Graph.EdgeFeatures != nil {
		edim = s.cfg.Graph.EdgeFeatureDim()
	}
	for i, e := range d.AddEdges {
		if int(e.Src) < 0 || int(e.Src) >= n || int(e.Dst) < 0 || int(e.Dst) >= n {
			return fmt.Sprintf("add_edges[%d] (%d->%d) references nodes outside [0,%d)", i, e.Src, e.Dst, n)
		}
		if len(e.Features) != edim {
			return fmt.Sprintf("add_edges[%d] has feature dim %d, graph edges carry %d", i, len(e.Features), edim)
		}
	}
	// Removals resolve against the graph before the batch: a same-batch new
	// node has no edges yet, so naming one is a batch the drain would reject.
	for i, e := range d.RemoveEdges {
		if int(e.Src) < 0 || int(e.Src) >= old || int(e.Dst) < 0 || int(e.Dst) >= old {
			return fmt.Sprintf("remove_edges[%d] (%d->%d) references nodes outside [0,%d)", i, e.Src, e.Dst, old)
		}
	}
	return ""
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad request body: " + err.Error()})
		return
	}
	j, errMsg := s.buildJob(&req)
	if errMsg != "" {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: errMsg})
		return
	}
	s.m.requests.Add(1)

	deadline := s.cfg.MaxLatency
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	j.ctx = ctx

	// Admission: refuse during shutdown, shed when the bounded queue is
	// full — the server's capacity statement, not a transient failure.
	select {
	case <-s.stop:
		writeJSON(w, http.StatusServiceUnavailable, QueryResponse{Error: "server shutting down"})
		return
	default:
	}
	select {
	case s.queue <- j:
		if s.admitHook != nil {
			s.admitHook()
		}
	default:
		s.m.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, QueryResponse{Error: "overloaded: admission queue full"})
		return
	}

	var res jobResult
	select {
	case res = <-j.res:
	case <-ctx.Done():
		// Deadline passed with the job still queued or mid-compute: degrade
		// from the store. finish races the executor; whichever delivery wins
		// is the response (the channel is guaranteed non-empty after).
		s.finish(j, s.degradeResult(j, "deadline exceeded"))
		res = <-j.res
	}
	if res.errMsg != "" {
		writeJSON(w, res.status, QueryResponse{Error: res.errMsg})
		return
	}
	writeJSON(w, res.status, QueryResponse{Answers: res.answers})
}

// buildJob validates a query against the resident graph — the current
// snapshot's, so freshly mutated-in nodes become queryable the moment their
// refresh lands — and assembles the executor's job. All request-derived indices
// and dimensions are checked here, at the boundary, so the compute path
// never sees malformed input.
func (s *Server) buildJob(req *QueryRequest) (*job, string) {
	g := s.currentGraph()
	if len(req.Roots) == 0 && req.ColdStart == nil {
		return nil, "query needs roots or cold_start"
	}
	seen := make(map[int32]bool, len(req.Roots))
	for _, r := range req.Roots {
		if int(r) < 0 || int(r) >= g.NumNodes {
			return nil, fmt.Sprintf("root %d outside [0,%d)", r, g.NumNodes)
		}
		if seen[r] {
			return nil, fmt.Sprintf("duplicate root %d", r)
		}
		seen[r] = true
	}
	j := &job{roots: req.Roots, res: make(chan jobResult, 1)}
	if len(req.Overrides) > 0 {
		j.overrides = make(map[int32][]float32, len(req.Overrides))
		for key, feat := range req.Overrides {
			node, err := strconv.ParseInt(key, 10, 32)
			if err != nil || int(node) < 0 || int(node) >= g.NumNodes {
				return nil, fmt.Sprintf("override key %q is not a node id in [0,%d)", key, g.NumNodes)
			}
			if len(feat) != g.FeatureDim() {
				return nil, fmt.Sprintf("override for node %d has dim %d, graph features are %d", node, len(feat), g.FeatureDim())
			}
			j.overrides[int32(node)] = feat
		}
	}
	if cs := req.ColdStart; cs != nil {
		if len(cs.InNeighbors) == 0 {
			return nil, "cold_start needs at least one in-neighbor"
		}
		if len(cs.Features) != g.FeatureDim() {
			return nil, fmt.Sprintf("cold_start features dim %d, graph features are %d", len(cs.Features), g.FeatureDim())
		}
		for _, u := range cs.InNeighbors {
			if int(u) < 0 || int(u) >= g.NumNodes {
				return nil, fmt.Sprintf("cold_start in-neighbor %d outside [0,%d)", u, g.NumNodes)
			}
		}
		if g.EdgeFeatures != nil {
			if len(cs.EdgeFeatures) != len(cs.InNeighbors) {
				return nil, fmt.Sprintf("cold_start has %d edge feature rows for %d in-edges", len(cs.EdgeFeatures), len(cs.InNeighbors))
			}
			for i, row := range cs.EdgeFeatures {
				if len(row) != g.EdgeFeatureDim() {
					return nil, fmt.Sprintf("cold_start edge feature %d has dim %d, graph edges are %d", i, len(row), g.EdgeFeatureDim())
				}
			}
		} else if len(cs.EdgeFeatures) != 0 {
			return nil, "cold_start carries edge features but the graph has none"
		}
		j.cold = &graph.VirtualRoot{
			Features:     cs.Features,
			InNeighbors:  cs.InNeighbors,
			EdgeFeatures: cs.EdgeFeatures,
		}
	}
	return j, ""
}
