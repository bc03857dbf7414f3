package checker

import (
	"reflect"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/topology"
)

// benchDeployments are the layer benchmark's rows: the benchmark's
// campaign-gr50 topology, the paper's demo, and a 200-router Gao-Rexford
// graph as the scale probe (ROADMAP item 2: the cost of checking one explored
// input should follow what the input moved, not the deployment's size).
var benchDeployments = []struct {
	name string
	topo func() *topology.Topology
}{
	{"gr50", func() *topology.Topology { return topology.GaoRexford(5, 15, 30, 1) }},
	{"demo27", topology.Demo27},
	{"gr200", func() *topology.Topology { return topology.GaoRexford(10, 50, 140, 1) }},
}

// moveOne delivers one UPDATE that its receiver drops (its own AS is in the
// path), so exactly one router of the clone moves.
func moveOne(tb testing.TB, c *cluster.Cluster, store *checkpoint.Store) {
	tb.Helper()
	topo := c.Topo
	router := topo.Nodes[len(topo.Nodes)/2]
	peer := topo.Node(topo.NeighborsOf(router.Name)[0])
	announce(c, peer.Name, router.Name, bgp.MustParsePrefix("99.0.0.0/8"), peer.AS, router.AS)
	if moved := movedRouters(c, store); moved != 1 {
		tb.Fatalf("the dropped UPDATE moved %d routers, want 1", moved)
	}
}

func movedRouters(c *cluster.Cluster, store *checkpoint.Store) int {
	moved := 0
	for name, r := range c.Routers {
		if !r.(snapshotHolder).Holds(store.Image(name), store.State(name)) {
			moved++
		}
	}
	return moved
}

// checkCases builds, for one deployment, the four measured checks: the full
// CheckAll and the evaluator on a clean clone, on a clone with one moved
// router, and on a clone none of whose routers hold the evaluator's store (an
// equal snapshot in a second store: same state, nothing to reuse).
func checkCases(tb testing.TB, topo *topology.Topology) map[string]func() *Report {
	store := cutStore(tb, topo, nil)
	other, err := checkpoint.NewStore(store.Snapshot())
	if err != nil {
		tb.Fatal(err)
	}
	props := append(DefaultProperties(topo), CrossImplDivergence{})
	pool := cluster.NewClonePool(topo, store, evalOpts)
	clean, oneMoved := lease(tb, pool), lease(tb, pool)
	moveOne(tb, oneMoved, store)
	eval, evalOther := NewEvaluator(store, props), NewEvaluator(other, props)
	cases := map[string]func() *Report{
		"full":      func() *Report { return CheckAll(oneMoved, props) },
		"clean":     func() *Report { return eval.CheckAll(clean) },
		"one-moved": func() *Report { return eval.CheckAll(oneMoved) },
		"all-moved": func() *Report { return evalOther.CheckAll(oneMoved) },
	}
	// Warm the memos, and hold every case to the definition while at it.
	for name, check := range cases {
		want := CheckAll(oneMoved, props)
		if name == "clean" {
			want = CheckAll(clean, props)
		}
		if got := check(); !reflect.DeepEqual(got, want) {
			tb.Fatalf("%s: report differs from CheckAll's", name)
		}
	}
	if moved := movedRouters(clean, store); moved != 0 {
		tb.Fatalf("checking the clean clone moved %d routers", moved)
	}
	return cases
}

var benchReport *Report

// BenchmarkCheck is the check layer's before/after: `full` is what every
// explored input paid before the evaluator (and what cold clones, federated
// and live checks still pay), the other three what a pooled campaign pays
// now. Run with -benchmem -cpu 1.
func BenchmarkCheck(b *testing.B) {
	for _, d := range benchDeployments {
		cases := checkCases(b, d.topo())
		for _, name := range []string{"full", "clean", "one-moved", "all-moved"} {
			check := cases[name]
			b.Run(d.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchReport = check()
				}
			})
		}
	}
}

// TestCleanCheckAllocationCeiling keeps per-(prefix, start) — or per-router —
// allocations from creeping back into the memoised path: a clean gr50 clone
// is checked in a few dozen allocations (the report's own slices), where the
// full check takes several thousand.
func TestCleanCheckAllocationCeiling(t *testing.T) {
	cases := checkCases(t, benchDeployments[0].topo())
	clean := testing.AllocsPerRun(20, func() { benchReport = cases["clean"]() })
	full := testing.AllocsPerRun(5, func() { benchReport = cases["full"]() })
	t.Logf("gr50 allocations per check: clean %.0f, full %.0f", clean, full)
	if clean > 60 {
		t.Errorf("a clean check allocates %.0f times, ceiling 60", clean)
	}
	if one := testing.AllocsPerRun(20, func() { benchReport = cases["one-moved"]() }); one > full/5 {
		t.Errorf("a check with one moved router allocates %.0f times, more than a fifth of the full check's %.0f", one, full)
	}
}
