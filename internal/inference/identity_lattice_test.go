package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// TestIdentityLattice walks the whole strategy lattice — {hash, LDG} ×
// PartialGather × Broadcast × ShadowNodes × Parallel at 1, 4, 8 and 16
// workers, 128 combos — over one 400-node skew-out graph and a 2-layer SAGE
// model.
//
// Every combo must predict the reference forward's classes. Where
// PartialGather is off, logits must also be bit-identical to one reference
// per (Broadcast, ShadowNodes) pair across every worker count, placement and
// parallel setting. Two scopes bound that claim: PartialGather combos are
// only held to classes (sender-side combining regroups float sums per
// placement), and ShadowNodes combos key on the worker count too, because
// the shadow rewrite splits hubs at the λ·edges/workers threshold and so
// runs a different graph at each count.
func TestIdentityLattice(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "lattice", Nodes: 400, AvgDegree: 8, Skew: datagen.SkewOut, Exponent: 1.8,
		FeatureDim: 32, NumClasses: 4, Seed: 1,
	})
	g := ds.Graph
	m := gas.NewSAGEModel("lattice", gas.TaskSingleLabel, 32, 32, 4, 2, 0, tensor.NewRNG(2))
	want := tensor.ArgmaxRows(ReferenceForward(m, g))

	refs := map[string]*tensor.Matrix{}
	for _, w := range []int{1, 4, 8, 16} {
		for _, strat := range []graph.Strategy{graph.Hash{}, graph.LDG{}} {
			for _, pg := range []bool{false, true} {
				for _, bc := range []bool{false, true} {
					for _, sn := range []bool{false, true} {
						for _, par := range []bool{false, true} {
							name := fmt.Sprintf("w%d/%s/pg=%v/bc=%v/sn=%v/par=%v", w, strat.Name(), pg, bc, sn, par)
							res, err := RunPregel(m, g, Options{
								NumWorkers: w, Partitioner: strat,
								PartialGather: pg, Broadcast: bc, ShadowNodes: sn, Parallel: par,
							})
							if err != nil {
								t.Errorf("%s: %v", name, err)
								continue
							}
							for v, c := range res.Classes {
								if c != want[v] {
									t.Errorf("%s: node %d class %d != reference %d", name, v, c, want[v])
									break
								}
							}
							if pg {
								continue
							}
							key := fmt.Sprintf("bc=%v/sn=%v", bc, sn)
							if sn {
								key = fmt.Sprintf("w%d/%s", w, key)
							}
							if ref, ok := refs[key]; !ok {
								refs[key] = res.Logits
							} else if !res.Logits.Equal(ref) {
								t.Errorf("%s: logits diverge bitwise from the %s reference (max diff %v)",
									name, key, res.Logits.MaxAbsDiff(ref))
							}
						}
					}
				}
			}
		}
	}
}
