package pregel

import (
	"testing"
)

// Engine benchmarks: testProg with a GNN-shaped 16-wide kindSum payload
// along every edge of a 2000-vertex, 16000-edge graph on 8 workers, for
// benchRounds sending supersteps — send, combine, barrier and inbox
// assembly measured end to end.

const (
	benchDim    = 16
	benchRounds = 6
)

func benchmarkSuperstep(b *testing.B, combine, parallel bool) {
	g := randomGraph(2000, 16000, 42)
	cfg := Config{NumWorkers: 8, Parallel: parallel}
	if combine {
		cfg.Combine = sumCombine
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _ := newProgEngine(g, testProg{rounds: benchRounds, width: benchDim}, cfg)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuperstep(b *testing.B)         { benchmarkSuperstep(b, false, false) }
func BenchmarkSuperstepCombine(b *testing.B)  { benchmarkSuperstep(b, true, false) }
func BenchmarkSuperstepParallel(b *testing.B) { benchmarkSuperstep(b, true, true) }
