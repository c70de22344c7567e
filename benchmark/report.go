package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

func printReport(out io.Writer, rep *report, s *samples, tr *tracer, o options) {
	calib := millis(s.calib)
	fmt.Fprintf(out, "# calib_ms min/median/max = %.2f / %.2f / %.2f\n",
		slices.Min(calib), median(calib), slices.Max(calib))
	fmt.Fprintf(out, "# samples: pass=%d query=%d query16=%d sat_slices=%d mutate=%d refresh=%d (kinds %v) mixed_query16=%d restart=%d\n",
		len(s.passWall), len(s.query), len(s.query16), len(s.satRates), len(s.mutate), len(s.refresh), s.refreshKinds, len(s.mixedQuery16), len(s.restart))
	fmt.Fprintf(out, "# operations: attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	if tr == nil {
		for _, m := range rep.EndToEnd {
			fmt.Fprintf(out, "%-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	} else {
		printOverhead(out, o, rep)
	}
	for _, m := range rep.PerLayer {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, e := range s.failures {
		fmt.Fprintf(out, "FAILED OP: %s\n", e)
	}
	for _, e := range rep.CheckErrs {
		fmt.Fprintf(out, "FAILED CHECK: %s\n", e)
	}
	if tr != nil {
		tr.printTotals(out)
	}
}

// untraced is what an untraced run leaves behind for the traced run of the
// same workload to compare itself with.
type untraced struct {
	Seed    int64              `json:"seed"`
	Seconds float64            `json:"seconds"`
	Scale   string             `json:"scale"`
	Metrics map[string]float64 `json:"metrics"`
}

func untracedPath(o options, workload string) string {
	return filepath.Join(o.Tmp, "e2e-"+workload+".json")
}

// saveUntraced records an untraced run's end-to-end values.
func saveUntraced(o options, rep *report) error {
	u := untraced{Seed: o.Seed, Seconds: o.Seconds, Scale: o.Scale, Metrics: make(map[string]float64)}
	for _, m := range rep.EndToEnd {
		u.Metrics[m.Name] = m.Value
	}
	b, err := json.Marshal(u)
	if err != nil {
		return err
	}
	return os.WriteFile(untracedPath(o, rep.Workload), b, 0o644)
}

// printOverhead puts the traced run's end-to-end metrics beside the last
// untraced run's: the difference is what tracing costs (plus run-to-run
// noise; the spans sit in the harness, not in the program).
func printOverhead(out io.Writer, o options, rep *report) {
	var u untraced
	b, err := os.ReadFile(untracedPath(o, rep.Workload))
	if err == nil {
		err = json.Unmarshal(b, &u)
	}
	if err != nil || u.Seed != o.Seed || u.Seconds != o.Seconds || u.Scale != o.Scale {
		fmt.Fprintf(out, "# trace overhead: no untraced run of %s with seed %d, %g s, scale %s to compare with (run -trace 0 first)\n",
			rep.Workload, o.Seed, o.Seconds, o.Scale)
		return
	}
	fmt.Fprintf(out, "%-28s %14s %14s %9s\n", "# trace overhead", "untraced", "traced", "diff%")
	for _, m := range rep.EndToEnd {
		base := u.Metrics[m.Name]
		fmt.Fprintf(out, "%-28s %14.6g %14.6g %+9.2f\n", m.Name, base, m.Value, 100*(m.Value-base)/base)
	}
}
