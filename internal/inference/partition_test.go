package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
)

// communityDataset builds a homophilous power-law graph with enough
// communities for a locality-aware placement to exploit at 8 workers.
func communityDataset(t *testing.T, nodes int, skew datagen.Skew) *graph.Graph {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "part", Nodes: nodes, AvgDegree: 8, Skew: skew, Exponent: 1.8,
		FeatureDim: 8, NumClasses: 16, Homophily: 0.8, Seed: 33,
	})
	return ds.Graph
}

// TestPlacementBitIdenticalPredictions is the tentpole invariant at the
// driver level: logits are bit-identical across every placement strategy
// and every worker count — one shared reference for all of them.
// (Partial-gather is excluded here: combining regroups float sums per sender
// worker, so its guarantee is per-config determinism, covered below and by
// the bench gate.)
func TestPlacementBitIdenticalPredictions(t *testing.T) {
	g := communityDataset(t, 300, datagen.SkewIn)
	m := sageModel(t)
	var ref *Result
	for _, workers := range []int{1, 4, 8} {
		for _, strat := range []graph.Strategy{nil, graph.DegreeBalanced{}, graph.LDG{}, graph.Fennel{}} {
			name := "hash"
			if strat != nil {
				name = strat.Name()
			}
			res, err := RunPregel(m, g, Options{NumWorkers: workers, Partitioner: strat, Parallel: true})
			if err != nil {
				t.Fatalf("w%d/%s: %v", workers, name, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !res.Logits.Equal(ref.Logits) {
				t.Fatalf("w%d/%s: logits not bit-identical to the w1/hash reference (max diff %v)",
					workers, name, res.Logits.MaxAbsDiff(ref.Logits))
			}
		}
	}
}

// TestPlacementNeutralUnderSkewStrategies: the placement axis composes with
// the paper's skew strategies. Broadcast and shadow-nodes stay bit-neutral
// across placements; partial-gather regroups sender-side sums, so there the
// cross-placement claim is tolerance-level.
func TestPlacementNeutralUnderSkewStrategies(t *testing.T) {
	g := communityDataset(t, 300, datagen.SkewOut)
	m := sageModel(t)
	for _, opts := range []Options{
		{NumWorkers: 6, Broadcast: true},
		{NumWorkers: 6, ShadowNodes: true},
		{NumWorkers: 6, Broadcast: true, ShadowNodes: true},
	} {
		hash, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		ldgOpts := opts
		ldgOpts.Partitioner = graph.LDG{}
		ldg, err := RunPregel(m, g, ldgOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !hash.Logits.Equal(ldg.Logits) {
			t.Fatalf("%+v: hash and LDG logits diverge bitwise: %v", opts, hash.Logits.MaxAbsDiff(ldg.Logits))
		}
	}
	pg := Options{NumWorkers: 6, PartialGather: true}
	hash, err := RunPregel(m, g, pg)
	if err != nil {
		t.Fatal(err)
	}
	pg.Partitioner = graph.LDG{}
	ldg, err := RunPregel(m, g, pg)
	if err != nil {
		t.Fatal(err)
	}
	if !hash.Logits.AllClose(ldg.Logits, logitTol) {
		t.Fatalf("partial-gather under LDG diverged: %v", hash.Logits.MaxAbsDiff(ldg.Logits))
	}
	if ldg.Stats.CombinedAway == 0 {
		t.Fatal("partial-gather stopped combining under LDG")
	}
}

// TestLDGReducesRemoteTraffic: the point of the subsystem — on a
// homophilous power-law graph, LDG placement must cut cross-worker bytes
// well below hash while leaving results and total message counts untouched.
func TestLDGReducesRemoteTraffic(t *testing.T) {
	g := communityDataset(t, 1200, datagen.SkewIn)
	m := sageModel(t)
	hash, err := RunPregel(m, g, Options{NumWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := RunPregel(m, g, Options{NumWorkers: 8, Partitioner: graph.LDG{}})
	if err != nil {
		t.Fatal(err)
	}
	if !hash.Logits.Equal(ldg.Logits) {
		t.Fatal("placement changed predictions")
	}
	if hash.Stats.MessagesSent != ldg.Stats.MessagesSent {
		t.Fatalf("placement changed total messages: %d vs %d", hash.Stats.MessagesSent, ldg.Stats.MessagesSent)
	}
	if hash.Stats.RemoteBytes == 0 {
		t.Fatal("hash run recorded no remote bytes")
	}
	reduction := 1 - float64(ldg.Stats.RemoteBytes)/float64(hash.Stats.RemoteBytes)
	if reduction < 0.25 {
		t.Fatalf("LDG cut remote bytes by only %.1f%% (hash %d, ldg %d)",
			100*reduction, hash.Stats.RemoteBytes, ldg.Stats.RemoteBytes)
	}
}

// TestCheckpointRecoveryWithLDG: recovery replays stay byte-identical under
// a computed placement (the snapshot machinery is placement-agnostic).
func TestCheckpointRecoveryWithLDG(t *testing.T) {
	g := communityDataset(t, 200, datagen.SkewIn)
	m := sageModel(t)
	clean, err := RunPregel(m, g, Options{NumWorkers: 4, Partitioner: graph.LDG{}})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RunPregel(m, g, Options{
		NumWorkers: 4, Partitioner: graph.LDG{},
		CheckpointEvery: 1, Faults: crashBefore(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Logits.Equal(recovered.Logits) {
		t.Fatal("recovery under LDG not byte-identical")
	}
}
