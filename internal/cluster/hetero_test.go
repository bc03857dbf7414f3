package cluster

import (
	"testing"
	"time"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/topology"
)

// TestBuildMixedImplementations verifies construction dispatches each node
// to its tagged backend.
func TestBuildMixedImplementations(t *testing.T) {
	topo := topology.Line(3).SetImpl("frr", "R2")
	c := MustBuild(topo, Options{Seed: 1})
	if got := c.Router("R1").Implementation(); got != "bird" {
		t.Errorf("R1 runs %q, want bird (default)", got)
	}
	if got := c.Router("R2").Implementation(); got != "frr" {
		t.Errorf("R2 runs %q, want frr", got)
	}
	if impls := c.Implementations(); len(impls) != 2 || impls[0] != "bird" || impls[1] != "frr" {
		t.Errorf("Implementations() = %v", impls)
	}
	if !topo.Heterogeneous() {
		t.Errorf("tagged topology not reported heterogeneous")
	}

	// A mixed deployment interoperates: full reachability across backends.
	c.Converge()
	for _, name := range c.RouterNames() {
		for _, tn := range topo.Nodes {
			if c.Router(name).LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s missing route to %s across implementations", name, tn.Prefixes[0])
			}
		}
	}
}

func TestBuildUnknownImplementationFails(t *testing.T) {
	topo := topology.Line(2).SetImpl("cisco-ios", "R1")
	if _, err := Build(topo, Options{}); err == nil {
		t.Fatal("unknown implementation tag must not build")
	}
}

// TestMixedPooledResetEquivalentToColdRebuild extends the golden
// clone-lifecycle property to heterogeneous deployments: on the mixed
// Demo27 variant, a pooled clone reset must be byte-identical to a cold
// rebuild — bird and frr nodes alike through the shared slab path — and stay
// identical under further execution.
func TestMixedPooledResetEquivalentToColdRebuild(t *testing.T) {
	topo := topology.Demo27Hetero()
	opts := Options{Seed: 3, GaoRexford: true}
	live := MustBuild(topo, opts)
	live.Net.Start()
	live.Run(60 * time.Millisecond) // mid-convergence: channel state in the cut
	snap := live.Snapshot()

	store, err := checkpoint.NewStore(snap)
	if err != nil {
		t.Fatalf("NewStore over mixed snapshot: %v", err)
	}
	pool := NewClonePool(topo, store, opts)

	explorer := "R13" // an frr stub
	peer := topo.NeighborsOf(explorer)[0]
	peerAS := topo.Node(peer).AS
	const n = 5
	for i := 0; i < n; i++ {
		clone, err := pool.Lease()
		if err != nil {
			t.Fatalf("Lease %d: %v", i, err)
		}
		clone.InjectUpdate(peer, explorer, exploredInput(i, peerAS))
		clone.Net.RunQuiescent(0)
		pool.Release(clone)
	}

	pooled, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := FromSnapshot(topo, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clusterCanonical(t, pooled), clusterCanonical(t, cold); got != want {
		t.Fatalf("mixed pooled-reset clone differs from cold rebuild")
	}
	in := exploredInput(99, peerAS)
	pooled.InjectUpdate(peer, explorer, in)
	cold.InjectUpdate(peer, explorer, in)
	pooled.Net.RunQuiescent(0)
	cold.Net.RunQuiescent(0)
	if got, want := clusterCanonical(t, pooled), clusterCanonical(t, cold); got != want {
		t.Fatalf("mixed pooled-reset clone diverged from cold rebuild after execution")
	}
}
