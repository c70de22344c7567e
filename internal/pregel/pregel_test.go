package pregel

import (
	"testing"

	"inferturbo/internal/datagen"
)

// TestCombinerReducesTraffic: on a star, one worker's messages for the hub
// merge into the first row until the combiner declines, after which every
// message travels on its own — and each merge is counted.
func TestCombinerReducesTraffic(t *testing.T) {
	eng, _ := runProg(t, starGraph(101), testProg{rounds: 1}, Config{NumWorkers: 1, Combine: sumCombine})
	m := eng.Metrics()[0][0]
	// The first kindSum row absorbs combineCap messages; the other
	// 100-combineCap kindSum messages, 100 kindHash messages and one mail
	// row are sent as they are.
	if want := int64(combineCap - 1); m.CombinedAway != want {
		t.Fatalf("combined away %d messages, want %d", m.CombinedAway, want)
	}
	if want := int64(1 + (100 - combineCap) + 100 + 1); m.MessagesSent != want {
		t.Fatalf("sent %d messages, want %d", m.MessagesSent, want)
	}
}

// TestColumnarCombinerReducesTraffic: a star graph where each sending
// worker's messages for the hub merge in place into one payload view —
// less traffic, the same values.
func TestColumnarCombinerReducesTraffic(t *testing.T) {
	g := starGraph(101)
	p := testProg{rounds: 2}
	run := func(combine bool) (vals []int32, sent, combined int64) {
		cfg := Config{NumWorkers: 4}
		if combine {
			cfg.Combine = sumCombine
		}
		eng, vals := runProg(t, g, p, cfg)
		m := sumMetrics(eng)
		return vals, m.MessagesSent, m.CombinedAway
	}
	plainVals, plainSent, _ := run(false)
	combVals, combSent, combined := run(true)
	if combSent >= plainSent {
		t.Fatalf("combiner did not reduce traffic: %d vs %d", combSent, plainSent)
	}
	if combined == 0 || combSent+combined != plainSent {
		t.Fatalf("combiner merges miscounted: %d sent + %d combined, %d without combining", combSent, combined, plainSent)
	}
	for v := range plainVals {
		if plainVals[v] != combVals[v] {
			t.Fatalf("combining changed value[%d]: %v vs %v", v, combVals[v], plainVals[v])
		}
	}
}

func TestMetricsBalance(t *testing.T) {
	eng, _ := runProg(t, randomGraph(60, 300, 4), testProg{rounds: 5}, Config{NumWorkers: 3})
	m := sumMetrics(eng)
	if m.MessagesSent != m.MessagesReceived {
		t.Fatalf("sent %d != received %d", m.MessagesSent, m.MessagesReceived)
	}
	if m.BytesSent != m.BytesReceived {
		t.Fatalf("sent %d bytes != received %d", m.BytesSent, m.BytesReceived)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := randomGraph(100, 600, 5)
	run := func(parallel bool) (*Engine, []int32) {
		return runProg(t, g, testProg{rounds: 10}, Config{
			NumWorkers: 8, Parallel: parallel, Combine: sumCombine, MaxSupersteps: 12,
		})
	}
	seqEng, seq := run(false)
	parEng, par := run(true)
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("parallel execution changed value[%d]: %v vs %v", v, seq[v], par[v])
		}
	}
	sm, pm := seqEng.TotalMetrics(), parEng.TotalMetrics()
	for w := range sm {
		if sm[w] != pm[w] {
			t.Fatalf("worker %d metrics diverge:\nserial   %+v\nparallel %+v", w, sm[w], pm[w])
		}
	}
}

// TestMessageBytesAccounting: with Config.Bytes unset every message is
// charged 4*payloadLen+16 bytes, sent and received.
func TestMessageBytesAccounting(t *testing.T) {
	g := ringGraph(4)
	p := testProg{rounds: 1}
	eng, _ := runProg(t, g, p, Config{NumWorkers: 2})
	want := refRun(g, p, nil, 64, 2).bytes(func(_ uint8, n int) int { return 4*n + 16 })
	m := sumMetrics(eng)
	if m.BytesSent != want || m.BytesReceived != want {
		t.Fatalf("bytes sent %d, received %d, want %d", m.BytesSent, m.BytesReceived, want)
	}
}

func TestEngineRejectsBadWorkerCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(ringGraph(3), &testProg{}, Config{NumWorkers: 0})
}

func TestEngineOnPowerLawGraph(t *testing.T) {
	// Smoke: the engine handles a skewed graph and cost accounting piles up
	// on the hub's worker.
	ds := datagen.PowerLaw(500, datagen.SkewOut, 6)
	p := testProg{rounds: 3}
	eng, prog := newProgEngine(ds.Graph, p, Config{NumWorkers: 10})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkRef(t, "power-law", eng, prog, refRun(ds.Graph, p, nil, 64, 10))
	var maxCost, minCost int64 = 0, 1 << 62
	for _, m := range eng.TotalMetrics() {
		maxCost = max(maxCost, m.ComputeCost)
		minCost = min(minCost, m.ComputeCost)
	}
	if maxCost <= minCost {
		t.Fatal("expected compute skew across workers on a power-law graph")
	}
}
