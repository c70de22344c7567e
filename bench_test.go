package inferturbo

// One benchmark per table and figure of the paper's evaluation section,
// each regenerating the corresponding experiment at the quick preset. Run
// cmd/bench for the full-scale harness with formatted output; EXPERIMENTS.md
// records the paper-vs-measured comparison, and `go run ./cmd/bench` from the
// repository root regenerates it.

import (
	"fmt"
	"runtime"
	"testing"

	"inferturbo/internal/experiments"
	"inferturbo/internal/tensor"
)

func BenchmarkTable1Datasets(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		experiments.Table1(s)
	}
}

func BenchmarkTable2Effectiveness(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table2(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Efficiency runs the end-to-end efficiency experiment with
// serial kernels (kernelWorkers=1) and with the parallel kernel layer at the
// machine's core count — results are bit-identical, so the delta is pure
// kernel-layer wall-clock and allocation savings.
func BenchmarkTable3Efficiency(b *testing.B) {
	s := experiments.Quick()
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("kernelWorkers=%d", w), func(b *testing.B) {
			prev := tensor.SetTuning(tensor.Tuning{Workers: w})
			defer tensor.SetTuning(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.Table3(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4Hops(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table4(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Consistency(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Scalability(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig8(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PartialGather(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig9(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10OutDegree(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig10(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11PartialGatherIO(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig11(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12BroadcastIO(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig12(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13ShadowNodesIO(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig13(s); err != nil {
			b.Fatal(err)
		}
	}
}
