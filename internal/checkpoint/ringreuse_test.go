package checkpoint_test

import (
	"reflect"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
	"github.com/dice-project/dice/internal/topology"
)

// underFreshPointers returns the snapshot with every checkpoint copied to a
// new address: equal content the store has never seen by identity.
func underFreshPointers(snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	out := snap.Clone()
	for name, cp := range snap.Nodes {
		fresh := *cp.(*speaker.Checkpoint)
		out.Nodes[name] = &fresh
	}
	return out
}

// TestRingByIdentityEqualsRingByContent: the ring resolves a checkpoint it
// already holds by pointer, without encoding or hashing it. Fed the cuts of a
// deployment that churns, idles, is touched without changing and idles again
// (long enough to evict every churn epoch), it must produce exactly the epochs
// of a ring fed the same cuts under fresh pointers, which hashes everything.
func TestRingByIdentityEqualsRingByContent(t *testing.T) {
	topo := topology.Demo27Hetero3()
	c := cluster.MustBuild(topo, cluster.Options{Seed: 5, GaoRexford: true})
	c.Converge()
	scenarios := faults.Scenarios(topo, 5)
	keepalive := bgp.Encode(&bgp.Keepalive{})
	first := topo.NodeNames()[0]
	steps := []struct {
		name string
		do   func()
	}{
		{"first cut", func() {}},
		{"churn", func() { scenarios[1].Prime(c); c.Net.RunQuiescent(0) }},
		{"churn", func() { scenarios[2].Prime(c); c.Net.RunQuiescent(0) }},
		{"quiet", nil},
		{"churn", func() { scenarios[3].Prime(c); c.Net.RunQuiescent(0) }},
		// Moved, same content: a new pointer the store learns as an alias.
		{"touched", func() { c.InjectRaw(topo.NeighborsOf(first)[0], first, keepalive); c.Net.RunQuiescent(0) }},
		{"quiet", nil}, {"quiet", nil}, {"quiet", nil}, {"quiet", nil},
		{"touched", func() { c.InjectRaw(topo.NeighborsOf(first)[0], first, keepalive); c.Net.RunQuiescent(0) }},
		{"quiet", nil},
	}
	byIdentity, byContent := checkpoint.NewRing(3), checkpoint.NewRing(3)
	var last map[string]node.Checkpoint
	reusedTotal := 0
	for i, step := range steps {
		if step.do != nil {
			step.do()
		}
		snap := c.Snapshot()
		unmoved := 0
		for name, cp := range snap.Nodes {
			if last[name] == cp {
				unmoved++
			}
		}
		last = snap.Clone().Nodes // Push adopts into snap.Nodes
		fresh := underFreshPointers(snap)
		a, err := byIdentity.Push(snap)
		if err != nil {
			t.Fatal(err)
		}
		b, err := byContent.Push(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Hashes, b.Hashes) || a.Fingerprint != b.Fingerprint || a.Bytes != b.Bytes ||
			a.DeltaBytes != b.DeltaBytes || a.NodesChanged != b.NodesChanged || a.Seq != b.Seq {
			t.Fatalf("epoch %d (%s): by identity {fp %x bytes %d delta %d changed %d}, by content {fp %x bytes %d delta %d changed %d}",
				i+1, step.name, a.Fingerprint, a.Bytes, a.DeltaBytes, a.NodesChanged, b.Fingerprint, b.Bytes, b.DeltaBytes, b.NodesChanged)
		}
		if a.NodesReused != unmoved || b.NodesReused != 0 {
			t.Fatalf("epoch %d (%s): reused %d by identity (want the %d unmoved routers) and %d under fresh pointers (want 0)",
				i+1, step.name, a.NodesReused, unmoved, b.NodesReused)
		}
		if step.do == nil && a.NodesReused != len(snap.Nodes) {
			t.Fatalf("epoch %d: a quiet cut reused %d of %d checkpoints", i+1, a.NodesReused, len(snap.Nodes))
		}
		if step.name == "touched" && (a.NodesChanged != 0 || a.NodesReused != len(snap.Nodes)-1) {
			t.Fatalf("epoch %d: a touched router changed %d nodes and left %d reused", i+1, a.NodesChanged, a.NodesReused)
		}
		reusedTotal += a.NodesReused
		if byIdentity.RefTotal() != byContent.RefTotal() || byIdentity.UniqueBlobs() != byContent.UniqueBlobs() ||
			byIdentity.RetainedBytes() != byContent.RetainedBytes() {
			t.Fatalf("epoch %d (%s): stores diverge: refs %d/%d, blobs %d/%d, bytes %d/%d", i+1, step.name,
				byIdentity.RefTotal(), byContent.RefTotal(), byIdentity.UniqueBlobs(), byContent.UniqueBlobs(),
				byIdentity.RetainedBytes(), byContent.RetainedBytes())
		}
		for _, r := range []*checkpoint.Ring{byIdentity, byContent} {
			if err := r.CheckIdentityIndex(); err != nil {
				t.Fatalf("epoch %d (%s): %v", i+1, step.name, err)
			}
		}
		for name := range snap.Nodes {
			if a.Store.State(name) == nil || a.Store.Image(name) == nil {
				t.Fatalf("epoch %d: store lacks %s", i+1, name)
			}
		}
	}
	if reusedTotal == 0 {
		t.Fatal("nothing was ever resolved by identity")
	}

	// A quiet push encodes nothing: its allocations do not grow with what the
	// routers hold, where one under fresh pointers pays for every encoding.
	quiet := testing.AllocsPerRun(10, func() {
		if _, err := byIdentity.Push(c.Snapshot()); err != nil {
			t.Fatal(err)
		}
	})
	hashed := testing.AllocsPerRun(10, func() {
		if _, err := byContent.Push(underFreshPointers(c.Snapshot())); err != nil {
			t.Fatal(err)
		}
	})
	if n := float64(len(topo.Nodes)); quiet > 2*n || hashed < quiet+8*n {
		t.Errorf("a push of %.0f quiet routers allocates %.0f times by identity and %.0f by content; want at most two per router by identity (the cut's and the epoch's maps) and one encoding per router, a dozen allocations each, on top by content",
			n, quiet, hashed)
	}
}
