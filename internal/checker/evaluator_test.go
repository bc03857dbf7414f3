package checker

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// The seeded walk that compares the evaluator with CheckAll report for report
// on every backend lives next to the reset walk it extends
// (internal/cluster/checkwalk_test.go). This file holds what needs the
// package's unexported seams: a node-local property that counts its
// evaluations, so "memoised" and "re-checked" are observable.

// evalOpts are the deployment's, and every clone's, options.
var evalOpts = cluster.Options{Seed: 3, GaoRexford: true}

// cutStore builds the topology's deployment, lets prepare tamper with it,
// converges it and returns the store of its snapshot.
func cutStore(t testing.TB, topo *topology.Topology, prepare func(live *cluster.Cluster)) *checkpoint.Store {
	t.Helper()
	live := cluster.MustBuild(topo, evalOpts)
	if prepare != nil {
		prepare(live)
	}
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return store
}

func lease(t testing.TB, pool *cluster.ClonePool) *cluster.Cluster {
	t.Helper()
	c, err := pool.Lease()
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	return c
}

// announce delivers to router, as if from peer, an UPDATE for prefix with the
// given AS path, and settles the clone.
func announce(c *cluster.Cluster, peer, router string, prefix bgp.Prefix, path ...bgp.ASN) {
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: path, NextHop: 1}
	c.InjectUpdate(peer, router, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{prefix}})
	c.Net.RunQuiescent(0)
}

// evalCounter is a node-local property that counts how often each router was
// really evaluated. Its verdict quotes the router's state, so a stale memo
// shows in the report as well as in the count.
type evalCounter struct {
	mu    *sync.Mutex
	evals map[string]int
}

func newEvalCounter() evalCounter { return evalCounter{mu: new(sync.Mutex), evals: map[string]int{}} }

func (evalCounter) Name() string                      { return "eval-counter" }
func (p evalCounter) Check(c *cluster.Cluster) Result { return checkNodes(p, c) }
func (p evalCounter) forNode(*cluster.Cluster) func(string, node.Router) nodeResult {
	return func(name string, r node.Router) nodeResult {
		p.mu.Lock()
		p.evals[name]++
		p.mu.Unlock()
		detail := fmt.Sprintf("%d prefixes, %d events", r.LocRIB().Len(), len(r.Events()))
		return nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: true, Detail: detail}}
	}
}

func (p evalCounter) count(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evals[name]
}

// crashOnUpdate makes the router's handler crash on every UPDATE.
func crashOnUpdate(r node.Router) {
	r.SetUpdateHook(func(node.HookContext, string, *bgp.Update) error { return errInjected })
}

// TestEvaluatorMemoisesACrashedCleanRouter: the snapshot holds a router whose
// handler already crashed, so its memoised node-health outcome is a violation
// and computing it moves the router (CheckInvariants writes the checkpointed
// failure counter). The clean set is fixed before any property runs, so the
// properties after node-health still memoise the router on that very check;
// and a memoised check leaves the counter alone, so the clone stays equal to a
// cold one.
func TestEvaluatorMemoisesACrashedCleanRouter(t *testing.T) {
	topo := topology.Line(3)
	store := cutStore(t, topo, func(live *cluster.Cluster) { crashOnUpdate(live.Router("R2")) })
	pool := cluster.NewClonePool(topo, store, evalOpts)
	counter := newEvalCounter()
	props := []Property{NodeHealth{}, LoopFreedom{}, counter}
	eval := NewEvaluator(store, props)

	cold, err := cluster.FromStore(topo, store, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := cold.Router("R2").Stats().InvariantFailures
	want := CheckAll(cold, []Property{NodeHealth{}, LoopFreedom{}, newEvalCounter()})
	if want.Results[0].OK() {
		t.Fatal("the crashed handler went unreported; the test is vacuous")
	}
	if cold.Router("R2").Stats().InvariantFailures == baseline {
		t.Fatal("checking did not touch the failure counter; the test is vacuous")
	}

	for round := 1; round <= 3; round++ {
		clone := lease(t, pool)
		if got := clone.Router("R2").Stats().InvariantFailures; got != baseline {
			t.Fatalf("round %d: leased R2 has InvariantFailures %d, a cold clone %d", round, got, baseline)
		}
		if got := eval.CheckAll(clone); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: incremental report differs from the full one\n got %+v\nwant %+v", round, got, want)
		}
		if n := counter.count("R2"); n != 1 {
			t.Fatalf("round %d: R2 was evaluated %d times by a property after node-health, want once: it was clean when the check began", round, n)
		}
		if round > 1 {
			if got := clone.Router("R2").Stats().InvariantFailures; got != baseline {
				t.Fatalf("round %d: a memoised check wrote R2's failure counter (%d, snapshot %d)", round, got, baseline)
			}
		}
		pool.Release(clone)
	}
}

// TestEvaluatorRechecksACloneOfAnotherStore: clean is relative to the
// evaluator's own store. A clone that did nothing since it was reset onto
// store B is unmoved, yet nothing memoised for store A may be said of it.
func TestEvaluatorRechecksACloneOfAnotherStore(t *testing.T) {
	topo := topology.Demo27()
	live := cluster.MustBuild(topo, evalOpts)
	live.Net.Start()
	live.Run(60 * time.Millisecond)
	early := live.Snapshot()
	live.Converge()
	storeA, err := checkpoint.NewStore(early)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	counter := newEvalCounter()
	props := append(DefaultProperties(topo), counter)
	oracle := append(DefaultProperties(topo), newEvalCounter())
	eval := NewEvaluator(storeA, props)
	clone := lease(t, cluster.NewClonePool(topo, storeA, evalOpts))

	onA := eval.CheckAll(clone)
	if want := CheckAll(clone, oracle); !reflect.DeepEqual(onA, want) {
		t.Fatalf("store A: incremental report differs from the full one")
	}
	for i, store := range []*checkpoint.Store{storeB, storeA, storeB} {
		if err := clone.ResetToStore(store); err != nil {
			t.Fatal(err)
		}
		got := eval.CheckAll(clone)
		if want := CheckAll(clone, oracle); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset %d: incremental report differs from the full one\n got %+v\nwant %+v", i, got, want)
		}
		if store == storeB && reflect.DeepEqual(got, onA) {
			t.Fatal("the two snapshots check alike; the test is vacuous")
		}
	}
	// One evaluation on A's first sighting, one per visit to B, none for the
	// return to A.
	for _, name := range topo.NodeNames() {
		if n := counter.count(name); n != 3 {
			t.Errorf("%s was evaluated %d times, want 3 (memoised on A, re-checked on B)", name, n)
		}
	}
}

// wholeCluster is a property the evaluator knows nothing about: neither
// node-local nor loop-freedom.
type wholeCluster struct{ calls *int }

func (wholeCluster) Name() string { return "whole-cluster" }
func (p wholeCluster) Check(c *cluster.Cluster) Result {
	*p.calls++
	return Result{Property: p.Name(), DisclosedBytes: c.TotalBestChanges()}
}

// TestEvaluatorFallsBackToCheck: an unknown property is evaluated by its own
// Check on every call, in its place among the results.
func TestEvaluatorFallsBackToCheck(t *testing.T) {
	topo := topology.Line(4)
	store := cutStore(t, topo, nil)
	pool := cluster.NewClonePool(topo, store, evalOpts)
	calls := 0
	props := []Property{NodeHealth{}, wholeCluster{&calls}, LoopFreedom{}}
	eval := NewEvaluator(store, props)
	for round := 1; round <= 3; round++ {
		clone := lease(t, pool)
		if round == 2 {
			announce(clone, "R1", "R2", bgp.MustParsePrefix("99.0.0.0/8"), 65001)
		}
		got := eval.CheckAll(clone)
		if calls != 2*round-1 {
			t.Fatalf("round %d: the property's Check ran %d times, want %d", round, calls, 2*round-1)
		}
		if want := CheckAll(clone, props); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: incremental report differs from the full one\n got %+v\nwant %+v", round, got, want)
		}
		pool.Release(clone)
	}
}

// TestEvaluatorSharedByWorkers drives one evaluator from two workers, each on
// its own pooled clone, the way WithWorkers(2) does (run under -race).
func TestEvaluatorSharedByWorkers(t *testing.T) {
	topo := topology.Demo27Hetero3()
	store := cutStore(t, topo, nil)
	pool := cluster.NewClonePool(topo, store, evalOpts)
	props := append(DefaultProperties(topo), CrossImplDivergence{})
	eval := NewEvaluator(store, props)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				clone, err := pool.Lease()
				if err != nil {
					t.Error(err)
					return
				}
				router := topo.Nodes[(7*i+13*w)%len(topo.Nodes)]
				peer := topo.NeighborsOf(router.Name)[0]
				// Every third input is a hijack of the neighbor's neighbor.
				victim := topo.Nodes[(i+w)%len(topo.Nodes)]
				if i%3 != 2 {
					announce(clone, peer, router.Name, victim.Prefixes[0], topo.Node(peer).AS)
				}
				got, want := eval.CheckAll(clone), CheckAll(clone, props)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d input %d: incremental report differs from the full one", w, i)
				}
				pool.Release(clone)
			}
		}(w)
	}
	wg.Wait()
}
