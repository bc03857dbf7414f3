package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/fuzz"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/node/procdriver"
	"github.com/dice-project/dice/internal/topology"
)

// TestMain lets the test binary double as the procdriver's child process for
// the proc: rows below.
func TestMain(m *testing.M) {
	procdriver.MaybeRunChild()
	os.Exit(m.Run())
}

// The dirty-set reset rewinds only the routers that moved since they were
// last reset onto the store, so its safety net is this file: whatever a lease
// did to a pooled clone, the next lease must be byte-identical to a cold
// FromStore clone — immediately, and after both ran the same further input.

// snapshotBytes is the canonical form of a cluster's whole state: every
// router's checkpoint, the virtual clock and the in-flight messages.
func snapshotBytes(t testing.TB, c *cluster.Cluster) []byte {
	t.Helper()
	data, err := checkpoint.Encode(c.Snapshot())
	if err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	return data
}

// deployment is one row of the tables in this file: a topology and how far
// its deployed cluster runs before the cut.
type deployment struct {
	name string
	topo func() *topology.Topology
	// runFor is how long the deployment runs before the snapshot: negative is
	// "until converged", zero "never started" (so a clone's Start really
	// starts), positive a mid-convergence cut with channel state.
	runFor time.Duration
	proc   bool
	// crashed names a router whose UPDATE handler crashes while the deployment
	// runs, so the snapshot holds a node that already violates an invariant.
	crashed string
}

var deployments = []deployment{
	{name: "demo27-midconvergence", topo: topology.Demo27, runFor: 60 * time.Millisecond},
	{name: "demo27hetero3", topo: topology.Demo27Hetero3, runFor: -1},
	{name: "gr50", topo: gr50, runFor: -1},
	{name: "line4-unstarted", topo: func() *topology.Topology { return topology.Line(4) }},
	{name: "proc-ring4", proc: true, runFor: -1, topo: func() *topology.Topology {
		return topology.Ring(4).SetImpl("proc:bird", "R1").SetImpl("proc:frr", "R2").SetImpl("proc:obgpd", "R3", "R4")
	}},
}

// gr50 is the benchmark's campaign-gr50 deployment: 50 routers, three tiers.
func gr50() *topology.Topology { return topology.GaoRexford(5, 15, 30, 1) }

// open builds the row's deployment, cuts it and returns the store to clone
// from. Proc rows skip where the sandbox cannot re-exec the test binary, and
// reap their subprocess fleet when the test ends.
func (d deployment) open(t testing.TB) (*topology.Topology, *checkpoint.Store, cluster.Options) {
	t.Helper()
	if d.proc {
		if err := procdriver.SpawnCheck(); err != nil {
			t.Skipf("environment cannot spawn backend subprocesses: %v", err)
		}
		t.Cleanup(func() {
			procdriver.KillAll()
			if n := procdriver.LiveChildren(); n != 0 {
				t.Errorf("%d backend subprocesses leaked", n)
			}
		})
	}
	topo := d.topo()
	opts := cluster.Options{Seed: 3, GaoRexford: true}
	live := cluster.MustBuild(topo, opts)
	if d.crashed != "" {
		faults.InstallCodeFaults(live.Routers, alwaysCrash(d.crashed))
	}
	switch {
	case d.runFor < 0:
		live.Converge()
	case d.runFor > 0:
		live.Net.Start()
		live.Run(d.runFor)
	}
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return topo, store, opts
}

// discard tears down a cold reference clone's subprocesses (a no-op for
// in-process routers), so a long walk does not accumulate a fleet.
func discard(c *cluster.Cluster) {
	for _, r := range c.Routers {
		procdriver.Kill(r)
	}
}

// walker draws the seeded sequence of things a lease does to a clone. Every
// step is a closure applied to the pooled clone and to the cold reference
// alike; it must build per-cluster objects (machines) afresh on each call.
type walker struct {
	topo      *topology.Topology
	rng       *rand.Rand
	gen       *fuzz.Generator
	scenarios []faults.Scenario
	props     []checker.Property
}

func newWalker(topo *topology.Topology, seed int64) *walker {
	pools := fuzz.Options{Seed: seed, MutationProbability: 0.15}
	for _, n := range topo.Nodes {
		pools.Prefixes = append(pools.Prefixes, n.Prefixes...)
		pools.ASNs = append(pools.ASNs, n.AS)
		pools.NextHops = append(pools.NextHops, uint32(n.RouterID))
	}
	return &walker{
		topo:      topo,
		rng:       rand.New(rand.NewSource(seed)),
		gen:       fuzz.New(pools),
		scenarios: faults.Scenarios(topo, seed)[1:4], // link-flap, session-reset, prefix-churn
		props:     checker.DefaultProperties(topo),
	}
}

// edge picks a random router and one of its neighbors.
func (w *walker) edge() (router, peer string) {
	router = w.topo.Nodes[w.rng.Intn(len(w.topo.Nodes))].Name
	neighbors := w.topo.NeighborsOf(router)
	return router, neighbors[w.rng.Intn(len(neighbors))]
}

// next returns the name of the step drawn and the step itself.
func (w *walker) next() (string, func(c *cluster.Cluster)) {
	router, peer := w.edge()
	body := w.gen.Body()
	wire := bgp.FrameUpdate(body)
	switch w.rng.Intn(7) {
	case 0:
		return "fuzzed update at " + router, func(c *cluster.Cluster) {
			c.InjectRaw(peer, router, wire)
		}
	case 1:
		s := w.scenarios[w.rng.Intn(len(w.scenarios))]
		return "prelude " + s.Name(), func(c *cluster.Cluster) { s.Prime(c) }
	case 2:
		// The router ends the lease panicked, and the hook must not survive
		// into the next one.
		return "code fault at " + router, func(c *cluster.Cluster) {
			faults.InstallCodeFaults(c.Routers, alwaysCrash(router))
			c.InjectRaw(peer, router, wire)
		}
	case 3:
		// Installed but never fired: nothing reaches the router.
		return "idle code fault at " + router, func(c *cluster.Cluster) {
			faults.InstallCodeFaults(c.Routers, alwaysCrash(router))
		}
	case 4:
		fire := w.rng.Intn(2) == 0
		return fmt.Sprintf("armed machine at %s (fired %v)", router, fire), func(c *cluster.Cluster) {
			m := concolic.NewMachine(concolic.NewInput("update", body), concolic.MachineOptions{})
			c.Router(router).ExploreNextUpdate(m, peer)
			if fire {
				c.InjectRaw(peer, router, wire)
			}
		}
	case 5:
		return "check only", func(c *cluster.Cluster) {}
	default:
		return "nothing", nil
	}
}

// alwaysCrash is a planted programming error: the router's handler crashes
// on every UPDATE.
func alwaysCrash(router string) faults.HandlerBug {
	return faults.HandlerBug{BugName: "always-crash", Router: router, HookFn: func(node.HookContext, string, *bgp.Update) error {
		return fmt.Errorf("injected bug: every UPDATE crashes the handler")
	}}
}

// apply runs one step on a clone the way a campaign worker does: drive,
// settle, check. A nil step leaves the clone exactly as leased.
func (w *walker) apply(c *cluster.Cluster, step func(c *cluster.Cluster)) {
	if step == nil {
		return
	}
	step(c)
	c.Net.RunQuiescent(0)
	checker.CheckAll(c, w.props)
}

// TestDirtySetResetWalkEquivalentToCold is the seeded walk: one pooled clone
// lives through 50 leases of mixed activity, and at every lease it is
// compared with a cold clone before and after the step both then run.
func TestDirtySetResetWalkEquivalentToCold(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			topo, store, opts := d.open(t)
			pool := cluster.NewClonePool(topo, store, opts)
			w := newWalker(topo, 17)
			var pooled *cluster.Cluster
			for i := 0; i < 50; i++ {
				clone, err := pool.Lease()
				if err != nil {
					t.Fatalf("step %d: lease: %v", i, err)
				}
				if pooled != nil && clone != pooled {
					t.Fatalf("step %d: the pool handed out a second clone", i)
				}
				pooled = clone
				cold, err := cluster.FromStore(topo, store, opts)
				if err != nil {
					t.Fatalf("step %d: cold clone: %v", i, err)
				}
				if !bytes.Equal(snapshotBytes(t, clone), snapshotBytes(t, cold)) {
					t.Fatalf("step %d: leased clone differs from a cold clone", i)
				}
				name, step := w.next()
				w.apply(clone, step)
				w.apply(cold, step)
				if !bytes.Equal(snapshotBytes(t, clone), snapshotBytes(t, cold)) {
					t.Fatalf("step %d (%s): pooled clone diverged from the cold clone under execution", i, name)
				}
				if err := clone.Unhealthy(); err != nil {
					t.Fatalf("step %d (%s): %v", i, name, err)
				}
				discard(cold)
				pool.Release(clone)
			}
			if s := pool.Stats(); s.ColdBuilds != 1 || s.Discards != 0 || s.Leases != s.Releases {
				t.Errorf("pool stats = %+v, want one cold build, no discards, balanced leases", s)
			}
		})
	}
}

// TestCheckOnCleanCloneDoesNotLeakIntoNextLease is the regression test for
// CheckInvariants writing RouterStats.InvariantFailures from a read path: the
// snapshot holds a router whose handler already crashed, so checking a leased
// clone changes that router's counter without any event reaching it (for a
// proc: node, in the parent-side mirror). The next lease must still equal a
// cold clone.
func TestCheckOnCleanCloneDoesNotLeakIntoNextLease(t *testing.T) {
	for _, d := range []deployment{
		{name: "in-process", crashed: "R2", runFor: -1, topo: func() *topology.Topology { return topology.Line(3) }},
		{name: "proc", crashed: "R2", runFor: -1, proc: true, topo: func() *topology.Topology { return topology.Line(3).SetImpl("proc:frr", "R2") }},
	} {
		t.Run(d.name, func(t *testing.T) {
			topo, store, opts := d.open(t)
			pool := cluster.NewClonePool(topo, store, opts)
			clone, err := pool.Lease()
			if err != nil {
				t.Fatal(err)
			}
			before := clone.Router("R2").Stats().InvariantFailures
			if report := checker.CheckAll(clone, checker.DefaultProperties(topo)); report.OK() {
				t.Fatal("the crashed handler went unreported; test is vacuous")
			}
			if clone.Router("R2").Stats().InvariantFailures == before {
				t.Fatal("checking did not touch the counter; test is vacuous")
			}
			pool.Release(clone)

			again, err := pool.Lease()
			if err != nil {
				t.Fatal(err)
			}
			if again != clone {
				t.Fatal("the pool did not recycle the clone")
			}
			cold, err := cluster.FromStore(topo, store, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshotBytes(t, again), snapshotBytes(t, cold)) {
				t.Errorf("a checker call on a clean clone leaked into the next lease (R2 InvariantFailures = %d, cold %d)",
					again.Router("R2").Stats().InvariantFailures, cold.Router("R2").Stats().InvariantFailures)
			}
		})
	}
}

// TestResetOntoAnotherStoreRewindsEverything: clean is only ever relative to
// the pair a router was last reset onto. A clone that did nothing since it was
// leased from a pool over store A is still fully rewound onto store B.
func TestResetOntoAnotherStoreRewindsEverything(t *testing.T) {
	topo := topology.Demo27()
	opts := cluster.Options{Seed: 3, GaoRexford: true}
	live := cluster.MustBuild(topo, opts)
	live.Net.Start()
	live.Run(60 * time.Millisecond)
	early := live.Snapshot()
	live.Converge()
	late := live.Snapshot()
	storeA, err := checkpoint.NewStore(early)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := checkpoint.NewStore(late)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := cluster.NewClonePool(topo, storeA, opts).Lease()
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []*checkpoint.Store{storeB, storeA, storeB} {
		if err := clone.ResetToStore(store); err != nil {
			t.Fatal(err)
		}
		cold, err := cluster.FromStore(topo, store, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, clone), snapshotBytes(t, cold)) {
			t.Fatalf("an untouched clone reset onto a different store differs from that store's cold clone")
		}
	}
}
