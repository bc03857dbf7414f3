package concolic_test

import (
	"testing"

	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/concolic/updatepaths"
)

// BenchmarkExplorerStep is one Explorer.Step over the deepest path recorded
// from the gr50 UPDATE handler: the program replays the recorded branches, so
// the step's cost is the explorer's own — coverage bookkeeping, one solver
// query per branch, and the children it derives.
func BenchmarkExplorerStep(b *testing.B) {
	machines, err := updatepaths.Record(updatepaths.Deployments()[0], 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	rec := machines[0]
	for _, m := range machines {
		if len(m.Path()) > len(rec.Path()) {
			rec = m
		}
	}
	replay := func(in *concolic.Input, m *concolic.Machine) error {
		for region, data := range in.Regions {
			m.Bytes(region, data)
		}
		for _, br := range rec.Path() {
			cond := concolic.Value{Concrete: 1, Sym: br.Cond}
			if !br.Taken {
				cond = concolic.Value{Sym: expr.Not(br.Cond)}
			}
			m.Branch(br.Site, cond)
		}
		return nil
	}
	e := concolic.NewExplorer(replay, concolic.ExplorerOptions{Seed: 1})
	in := rec.Input()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step(in, 0)
	}
	b.ReportMetric(float64(len(rec.Path())), "flips/op")
}
