package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// holds the output to BENCHMARK.json: every declared workload exists, every
// declared metric is emitted exactly once with its declared unit, nothing
// undeclared is emitted, and the correctness block passes — so the JSON and
// the code cannot drift apart.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}

	check := func(w workload, trace int, emitted []metric, declared []specMetric) {
		units := make(map[string]string)
		for _, m := range emitted {
			if _, dup := units[m.Name]; dup {
				t.Errorf("%s trace=%d: metric %s emitted twice", w.Name, trace, m.Name)
			}
			units[m.Name] = m.Unit
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s trace=%d: metric %q unit %q breaks the naming rules", w.Name, trace, m.Name, m.Unit)
			}
		}
		for _, d := range declared {
			unit, ok := units[d.Name]
			if !ok {
				t.Errorf("%s trace=%d: declared metric %s was not emitted", w.Name, trace, d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s trace=%d: metric %s has unit %q, BENCHMARK.json declares %q", w.Name, trace, d.Name, unit, d.Unit)
			}
			delete(units, d.Name)
		}
		for name := range units {
			t.Errorf("%s trace=%d: metric %s is emitted but not declared in BENCHMARK.json", w.Name, trace, name)
		}
	}
	for i, w := range workloads {
		// The traced run measures both lists; one untraced run covers the
		// other code path.
		for trace := 1; trace >= 0 && (trace == 1 || i == 0); trace-- {
			dir := t.TempDir()
			var out bytes.Buffer
			rep, err := measure(w, scaleSmoke, options{Seed: 1, Seconds: 0.3, Trace: trace, Scale: "smoke", Tmp: dir}, dir, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out.String())
			}
			if !rep.Correct {
				t.Errorf("%s trace=%d: correctness block failed\n%s", w.Name, trace, out.String())
			}
			if rep.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d operations", w.Name, trace, rep.Attempted)
			}
			check(w, trace, rep.EndToEnd, sp.EndToEnd)
			if trace == 1 {
				check(w, trace, rep.PerLayer, sp.PerLayer)
			} else if len(rep.PerLayer) != 0 {
				t.Errorf("%s: the untraced run emitted per-layer metrics", w.Name)
			}
		}
	}
}

// TestSpread pins the quartile estimator to Python's
// statistics.quantiles(xs, n=4): for 1..10 the quartiles are 2.75 and 8.25.
func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
