// Fraud detection: the financial scenario that motivates the paper's
// consistency requirement. A transaction graph has a few hub accounts
// (payment processors, mule accounts) with enormous degree; risk scores must
// be identical every time the offline batch job runs, or downstream
// decisions (freezing accounts, filing reports) become indefensible.
//
// This example trains a GAT risk model, then contrasts:
//
//   - the traditional sampled k-hop pipeline, which flips predictions
//     between runs (different sampling seeds), and
//   - InferTurbo full-graph inference, which is bit-identical across runs
//     and matches the exact reference forward, with the broadcast strategy
//     taming the hub accounts.
//
// It then stands the same model up as a live risk service: per-account
// lookups from the resident store, a what-if query re-scoring a hub with
// neutralized features, and a cold-start score for a brand-new account known
// only by its first counterparties.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"inferturbo"
)

func main() {
	// A power-law transaction graph: out-degree skew models hub accounts
	// fanning out to thousands of counterparties. Class 1 = risky.
	ds := inferturbo.Generate(inferturbo.DatasetConfig{
		Name: "transactions", Nodes: 4000, AvgDegree: 10,
		Skew: inferturbo.SkewOut, Exponent: 1.7,
		FeatureDim: 24, NumClasses: 2, Homophily: 0.8,
		TrainFrac: 0.2, ValFrac: 0.1, Seed: 11,
	})
	g := ds.Graph
	fmt.Printf("transaction graph: %d accounts, %d edges, max out-degree %d\n",
		g.NumNodes, g.NumEdges, maxOutDegree(g))

	model := inferturbo.NewGATModel("fraud-gat", inferturbo.TaskSingleLabel,
		g.FeatureDim(), 8, 2, g.NumClasses, 2, inferturbo.NewRNG(12))
	if _, err := inferturbo.Train(model, g, inferturbo.TrainConfig{
		Epochs: 8, BatchSize: 64, Fanouts: []int{10, 10}, Seed: 13,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model test accuracy: %.3f\n\n", inferturbo.Evaluate(model, g, g.TestMask))

	// --- Traditional pipeline: two runs, two different answers. ---
	runSampled := func(seed int64) []int32 {
		res, err := inferturbo.RunBaseline(model, g, inferturbo.BaselineOptions{
			Workers: 4, Fanout: 5, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res.Classes
	}
	mon, tue := runSampled(100), runSampled(200)
	flips := 0
	for v := range mon {
		if mon[v] != tue[v] {
			flips++
		}
	}
	fmt.Printf("sampled k-hop pipeline (fanout 5): %d/%d accounts changed risk class between two runs\n",
		flips, g.NumNodes)

	// --- InferTurbo: every run identical, hubs handled by broadcast. ---
	opts := inferturbo.InferOptions{
		NumWorkers: 16, Broadcast: true, PartialGather: true, Parallel: true,
	}
	runFull := func() *inferturbo.InferResult {
		res, err := inferturbo.InferPregel(model, g, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	a, b := runFull(), runFull()
	identical := a.Logits.Equal(b.Logits)
	fmt.Printf("inferturbo full-graph: runs bit-identical = %v\n", identical)

	want := inferturbo.ReferenceForward(model, g)
	wantClasses, _ := model.Predict(want)
	agree := 0
	risky := 0
	for v := range a.Classes {
		if a.Classes[v] == wantClasses[v] {
			agree++
		}
		if a.Classes[v] == 1 {
			risky++
		}
	}
	fmt.Printf("vs exact reference forward: max |Δlogit| = %.2g, %d/%d accounts agree; %d flagged risky\n",
		a.Logits.MaxAbsDiff(want), agree, g.NumNodes, risky)
	fmt.Printf("broadcast handled %d hub node-steps, saving repeated hub payloads\n",
		a.Stats.BroadcastHubs)

	// --- Live serving: the batch job becomes an online risk service. ---
	// The initial full-graph pass (same options, same bit-identical result)
	// becomes the resident store; fresh k-hop queries answer what the batch
	// job cannot: hypotheticals and accounts that did not exist last night.
	srv, err := inferturbo.NewServer(inferturbo.ServeConfig{
		Model: model, Graph: g, Refresh: opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("\nrisk service live on %s\n", base)

	// Per-account lookup: wait-free read from the resident store.
	hub := hubAccount(g)
	var hubAns inferturbo.ServeAnswer
	getJSON(base+fmt.Sprintf("/v1/nodes/%d", hub), &hubAns)
	fmt.Printf("hub account %d (out-degree %d): class %d from store epoch %d\n",
		hub, g.OutDegree(hub), hubAns.Class, hubAns.Epoch)

	// What-if: re-score the hub's neighborhood with its transaction
	// features neutralized — a fresh k-hop pass, nothing written back.
	neutral := make([]float32, g.FeatureDim())
	whatIf := postQuery(base, inferturbo.QueryRequest{
		Roots:      []int32{hub},
		DeadlineMs: 10000,
		Overrides:  map[string][]float32{fmt.Sprint(hub): neutral},
	})
	fmt.Printf("what-if (hub features zeroed): class %d -> %d\n",
		hubAns.Class, whatIf.Answers[0].Class)

	// Cold start: a brand-new account whose only signal is that its first
	// counterparties include the hub. The virtual node rides the same
	// canonical k-hop plane, so the score is deterministic too.
	cold := postQuery(base, inferturbo.QueryRequest{
		DeadlineMs: 10000,
		ColdStart: &inferturbo.ColdStartRequest{
			Features:    g.Features.Row(int(hub)),
			InNeighbors: []int32{hub},
		},
	})
	newAcct := cold.Answers[len(cold.Answers)-1]
	fmt.Printf("cold-start account wired to the hub: class %d (source %s)\n",
		newAcct.Class, newAcct.Source)
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func postQuery(base string, req inferturbo.QueryRequest) inferturbo.QueryResponse {
	b, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var qr inferturbo.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("query failed (%d): %s", resp.StatusCode, qr.Error)
	}
	return qr
}

func hubAccount(g *inferturbo.Graph) int32 {
	best, bestDeg := int32(0), -1
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if d := g.OutDegree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

func maxOutDegree(g *inferturbo.Graph) int {
	return g.OutDegree(hubAccount(g))
}
