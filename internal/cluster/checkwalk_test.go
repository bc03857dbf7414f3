package cluster_test

import (
	"reflect"
	"testing"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
)

// The incremental evaluator reuses what it learnt from routers that still
// hold the snapshot, so its safety net is the reset walk's: whatever the
// leases did to a pooled clone, every report must equal checker.CheckAll's —
// violations in order, verdicts, disclosed bytes — on the explored clone and
// again on the next, untouched lease, where a memo poisoned by a moved router
// would surface.

// TestIncrementalCheckWalkEqualsFull walks one pooled clone per deployment
// through 60 mixed steps (120 leases) under one evaluator.
func TestIncrementalCheckWalkEqualsFull(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			topo, store, opts := d.open(t)
			pool := cluster.NewClonePool(topo, store, opts)
			w := newWalker(topo, 23)
			props := append(w.props, checker.CrossImplDivergence{})
			eval := checker.NewEvaluator(store, props)
			// compare returns how many violations the (agreed) report holds.
			compare := func(i int, when string, c *cluster.Cluster) int {
				t.Helper()
				// Incremental first: the full check's CheckInvariants may move
				// routers, and must not get to hide a stale memo that way.
				got, want := eval.CheckAll(c), checker.CheckAll(c, props)
				if !reflect.DeepEqual(got, want) {
					for k := range want.Results {
						if !reflect.DeepEqual(got.Results[k], want.Results[k]) {
							t.Errorf("step %d (%s): %s differs\n got %+v\nwant %+v", i, when, want.Results[k].Property, got.Results[k], want.Results[k])
						}
					}
					t.FailNow()
				}
				return len(want.Violations())
			}
			violations := 0
			for i := 0; i < 60; i++ {
				clone, err := pool.Lease()
				if err != nil {
					t.Fatalf("step %d: lease: %v", i, err)
				}
				name, step := w.next()
				if step != nil {
					step(clone)
					clone.Net.RunQuiescent(0)
				}
				violations += compare(i, name, clone)
				pool.Release(clone)

				clone, err = pool.Lease()
				if err != nil {
					t.Fatalf("step %d: second lease: %v", i, err)
				}
				compare(i, "the lease after "+name, clone)
				if err := clone.Unhealthy(); err != nil {
					t.Fatalf("step %d (%s): %v", i, name, err)
				}
				pool.Release(clone)
			}
			if violations == 0 {
				t.Error("the walk never produced a violation; the comparison is vacuous")
			}
			if s := pool.Stats(); s.ColdBuilds != 1 || s.Discards != 0 {
				t.Errorf("pool stats = %+v, want the whole walk on one clone", s)
			}
		})
	}
}
