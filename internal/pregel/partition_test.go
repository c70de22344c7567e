package pregel

import (
	"testing"

	"inferturbo/internal/graph"
)

// TestPlacementDoesNotChangeValues: the engine's headline invariant for
// pluggable partitioning — an integer-exact program produces identical
// values under hash and LDG placements, at every worker count, with and
// without combining.
func TestPlacementDoesNotChangeValues(t *testing.T) {
	g := randomGraph(80, 400, 21)
	p := testProg{rounds: 4}
	_, ref := runProg(t, g, p, Config{NumWorkers: 1})
	for _, workers := range []int{2, 4, 8} {
		for _, combine := range []bool{false, true} {
			cfg := Config{NumWorkers: workers, Partitioner: graph.LDG{}.Partition(g, workers), Parallel: true}
			if combine {
				cfg.Combine = sumCombine
			}
			_, got := runProg(t, g, p, cfg)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("workers=%d combine=%v: LDG value[%d] = %v, hash-1-worker %v",
						workers, combine, v, got[v], ref[v])
				}
			}
		}
	}
}

// TestDeliveryOrderIsCanonical: every destination receives its messages in
// globally ascending source id order (emission order within a source),
// independent of worker count and placement.
func TestDeliveryOrderIsCanonical(t *testing.T) {
	// Every vertex sends to vertex 0 three times and to its ring successor.
	const n = 13
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		for range 3 {
			b.AddEdge(v, 0, nil)
		}
		b.AddEdge(v, (v+1)%n, nil)
	}
	g := b.Build()
	// The serial reference of vertex 0's inbox, read straight off the graph:
	// each source's kindSum sends, then its kindHash sends.
	type row struct {
		src  int32
		kind uint8
	}
	var want []row
	for src := int32(0); src < n; src++ {
		for _, kind := range []uint8{kindSum, kindHash} {
			for _, d := range g.OutNeighbors(src) {
				if d == 0 {
					want = append(want, row{src, kind})
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 5} {
		for name, part := range map[string]graph.Partitioner{
			"hash": nil,
			"ldg":  graph.LDG{}.Partition(g, workers),
		} {
			eng, _ := newProgEngine(g, testProg{rounds: 2}, Config{
				NumWorkers: workers, Parallel: true, Partitioner: part,
			})
			eng.runSuperstep(0)
			w, li := eng.part.WorkerFor(0), eng.part.LocalIndex(0)
			in := &eng.colIn[w]
			var got []row
			for i := in.off[li]; i < in.off[li+1]; i++ {
				got = append(got, row{in.cols.srcs[i], in.cols.kinds[i]})
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s: received %d messages, want %d", workers, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d %s: delivery order diverges at %d: got %v want %v",
						workers, name, i, got, want)
				}
			}
		}
	}
}

// TestRemoteTrafficAccounting: a two-community graph placed by LDG must
// report less remote traffic than hash, while total sent traffic is
// identical; a single worker reports zero remote traffic.
func TestRemoteTrafficAccounting(t *testing.T) {
	// Two communities of 20, dense inside, one bridge each way.
	b := graph.NewBuilder(40)
	for c := 0; c < 2; c++ {
		base := int32(c * 20)
		for i := int32(0); i < 20; i++ {
			b.AddEdge(base+i, base+(i+1)%20, nil)
			b.AddEdge(base+i, base+(i+7)%20, nil)
		}
	}
	b.AddEdge(0, 20, nil)
	b.AddEdge(20, 0, nil)
	g := b.Build()

	totals := func(part graph.Partitioner, workers int) (sent, remote int64) {
		eng, _ := runProg(t, g, testProg{rounds: 3}, Config{NumWorkers: workers, Partitioner: part})
		m := sumMetrics(eng)
		return m.MessagesSent, m.RemoteMessagesSent
	}
	hashSent, hashRemote := totals(nil, 2)
	ldgSent, ldgRemote := totals(graph.LDG{}.Partition(g, 2), 2)
	if hashSent != ldgSent {
		t.Fatalf("placement changed total traffic: %d vs %d", hashSent, ldgSent)
	}
	if ldgRemote >= hashRemote {
		t.Fatalf("LDG remote %d not below hash remote %d on a community graph", ldgRemote, hashRemote)
	}
	if _, remote := totals(nil, 1); remote != 0 {
		t.Fatalf("single worker reported %d remote messages", remote)
	}
}

// TestPartitionerWorkerCountMismatchPanics: a partitioner built for a
// different worker count is a configuration bug the engine rejects.
func TestPartitionerWorkerCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(ringGraph(6), &testProg{}, Config{NumWorkers: 3, Partitioner: graph.NewPartitioner(2)})
}
