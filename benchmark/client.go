package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"inferturbo/internal/serve"
)

// do sends one request and returns the status, the fully read reply and the
// latency a caller waiting for the whole reply sees.
func (f *fixture) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, f.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, lat, err
}

func (f *fixture) post(path string, body []byte) (int, []byte, time.Duration, error) {
	return f.do(http.MethodPost, path, body)
}

func (f *fixture) get(path string) (int, []byte, time.Duration, error) {
	return f.do(http.MethodGet, path, nil)
}

// queryDeadlineMs is the per-request deadline every query carries. A root
// that is (or sits next to) a hub induces most of the graph, which takes
// longer than the server's default 250ms window; the benchmark wants that
// request's real latency in the tail, not a degraded answer.
const queryDeadlineMs = 10000

// query answers roots through POST /v1/query and checks the reply: 200, one
// fresh answer per root in order, logits bit-equal to the resident store's
// row (the store before or after the request, since a refresh may land in
// between). Anything else — shed, degraded-stale, non-2xx, wrong values — is
// an error, which the phases count as a failed operation.
func (f *fixture) query(roots []int32, parent, lane int) (time.Duration, error) {
	body, _ := json.Marshal(serve.QueryRequest{Roots: roots, DeadlineMs: queryDeadlineMs})
	before := f.srv.Store()
	id := f.tr.begin("serve.query", parent, lane)
	status, reply, lat, err := f.post("/v1/query", body)
	f.tr.end(id)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("query: status %d: %s", status, bytes.TrimSpace(reply))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(reply, &qr); err != nil {
		return lat, fmt.Errorf("query: decode reply: %w", err)
	}
	if len(qr.Answers) != len(roots) {
		return lat, fmt.Errorf("query: %d answers for %d roots", len(qr.Answers), len(roots))
	}
	after := f.srv.Store()
	for i, a := range qr.Answers {
		if a.Node != roots[i] || a.Stale || a.Source != "fresh" {
			return lat, fmt.Errorf("query: answer %d is node %d stale=%v source=%q, want fresh node %d",
				i, a.Node, a.Stale, a.Source, roots[i])
		}
		// With more than one refresh landing during the request, the epoch it
		// computed on may be neither of the two at hand; values go unchecked.
		if after.Epoch-before.Epoch <= 1 &&
			!sameBits(a.Logits, before.Logits.Row(int(a.Node))) && !sameBits(a.Logits, after.Logits.Row(int(a.Node))) {
			return lat, fmt.Errorf("query: node %d logits differ from the resident store", a.Node)
		}
	}
	return lat, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// mutate stages one batch through POST /v1/mutate; anything but 202 fails.
func (f *fixture) mutate(req serve.MutateRequest, parent int) (time.Duration, error) {
	body, _ := json.Marshal(req)
	id := f.tr.begin("serve.mutate", parent, 0)
	status, reply, lat, err := f.post("/v1/mutate", body)
	f.tr.end(id)
	if err != nil {
		return lat, err
	}
	if status != http.StatusAccepted {
		return lat, fmt.Errorf("mutate: status %d: %s", status, bytes.TrimSpace(reply))
	}
	return lat, nil
}

// refresh kicks POST /v1/refresh and waits for the store epoch to advance,
// returning the time from the POST to the new epoch and the pass's kind.
// The epoch is polled in-process (an atomic load every 200µs) so the wait
// itself takes no CPU from the pass.
func (f *fixture) refresh(parent int) (time.Duration, string, error) {
	epoch := f.srv.Store().Epoch
	id := f.tr.begin("serve.refresh", parent, 0)
	defer f.tr.end(id)
	start := time.Now()
	status, reply, _, err := f.post("/v1/refresh", nil)
	if err != nil {
		return 0, "", err
	}
	if status != http.StatusAccepted {
		return 0, "", fmt.Errorf("refresh: status %d: %s", status, bytes.TrimSpace(reply))
	}
	for {
		if snap := f.srv.Store(); snap.Epoch > epoch {
			return time.Since(start), snap.RefreshKind, nil
		}
		if time.Since(start) > 60*time.Second {
			return 0, "", fmt.Errorf("refresh: epoch did not advance within 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stats reads GET /v1/stats.
func (f *fixture) stats() (serve.Stats, error) {
	var st serve.Stats
	status, reply, _, err := f.get("/v1/stats")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", status)
	}
	return st, json.Unmarshal(reply, &st)
}

// logits reads the raw GET /v1/logits dump.
func (f *fixture) logits() ([]byte, error) {
	status, reply, _, err := f.get("/v1/logits")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("logits: status %d", status)
	}
	return reply, nil
}

// nodeLookup reads GET /v1/nodes/{id}: the HTTP + store floor of a query.
func (f *fixture) nodeLookup(node int32, parent int) (time.Duration, error) {
	id := f.tr.begin("serve.node_lookup", parent, 0)
	status, _, lat, err := f.get("/v1/nodes/" + strconv.Itoa(int(node)))
	f.tr.end(id)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("node lookup: status %d", status)
	}
	return lat, nil
}
