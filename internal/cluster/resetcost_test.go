package cluster_test

import (
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// slabs returns, per router, a best route of the Loc-RIB. Best routes point
// into the route slab the router's last rewind stamped out, so an unchanged
// pointer means the router was not rewound and a changed one that it was.
func slabs(c *cluster.Cluster) map[string]*rib.Route {
	out := make(map[string]*rib.Route, len(c.Routers))
	for name, r := range c.Routers {
		out[name] = r.LocRIB().BestRoutes()[0]
	}
	return out
}

func statsOf(c *cluster.Cluster) map[string]node.RouterStats {
	out := make(map[string]node.RouterStats, len(c.Routers))
	for name, r := range c.Routers {
		out[name] = r.Stats()
	}
	return out
}

// TestLeaseRewindsExactlyTheRoutersThatMoved pins proportionality on the
// benchmark's gr50 deployment: after one input, the next lease hands every
// router that handled an event a fresh slab and leaves every other router's
// in place. On a converged gr50 every delivery is an UPDATE, which moves a
// counter, so "handled an event" is read off the router stats.
func TestLeaseRewindsExactlyTheRoutersThatMoved(t *testing.T) {
	topo, store, opts := deployment{topo: gr50, runFor: -1}.open(t)
	pool := cluster.NewClonePool(topo, store, opts)
	clone, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	leased, before := slabs(clone), statsOf(clone)

	stub := topo.Nodes[len(topo.Nodes)-1]
	peer := topo.NeighborsOf(stub.Name)[0]
	clone.InjectUpdate(peer, stub.Name, &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Node(peer).AS, 64900}, NextHop: 1},
		NLRI:  []bgp.Prefix{bgp.MustParsePrefix("88.1.0.0/16")},
	})
	clone.Net.RunQuiescent(0)
	after := statsOf(clone)
	pool.Release(clone)

	again, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if again != clone {
		t.Fatal("the pool did not recycle the clone")
	}
	moved := 0
	for name, slab := range slabs(again) {
		handled := after[name] != before[name]
		if handled {
			moved++
		}
		if rewound := slab != leased[name]; rewound != handled {
			t.Errorf("%s: handled an event %v, rewound %v", name, handled, rewound)
		}
	}
	if after[stub.Name] == before[stub.Name] || moved == len(topo.Nodes) {
		t.Fatalf("%d of %d routers moved; the input must reach its target and leave others untouched", moved, len(topo.Nodes))
	}
}

// resetCases are the three costs a pooled reset can have: nothing moved, one
// router handled an event, every router did. A KEEPALIVE on an Established
// session is an event that changes no state and sends nothing, so it moves
// exactly the routers it is delivered to.
var resetCases = []struct {
	name  string
	moved func(topo *topology.Topology) []string
}{
	{"clean", func(*topology.Topology) []string { return nil }},
	{"one-moved", func(topo *topology.Topology) []string { return topo.NodeNames()[:1] }},
	{"all-moved", func(topo *topology.Topology) []string { return topo.NodeNames() }},
}

func move(c *cluster.Cluster, topo *topology.Topology, routers []string) {
	for _, name := range routers {
		c.InjectRaw(topo.NeighborsOf(name)[0], name, bgp.Encode(&bgp.Keepalive{}))
	}
	c.Net.RunQuiescent(0)
}

// BenchmarkResetToStore is the layer benchmark of the pooled reset
// (cluster.reset_us in bench/): all-moved is what every reset cost before the
// dirty set, clean is the floor.
func BenchmarkResetToStore(b *testing.B) {
	for _, d := range []deployment{
		{name: "gr50", topo: gr50, runFor: -1},
		{name: "demo27", topo: topology.Demo27, runFor: -1},
	} {
		for _, rc := range resetCases {
			b.Run(d.name+"/"+rc.name, func(b *testing.B) {
				topo, store, opts := d.open(b)
				clone, err := cluster.FromStore(topo, store, opts)
				if err != nil {
					b.Fatal(err)
				}
				routers := rc.moved(topo)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(routers) > 0 {
						b.StopTimer()
						move(clone, topo, routers)
						b.StartTimer()
					}
					if err := clone.ResetToStore(store); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCleanResetAllocatesNothingPerRouter is the ceiling that keeps an O(N)
// allocation from creeping back into the reset of a clone nothing touched:
// 50 routers, and not one allocation each.
func TestCleanResetAllocatesNothingPerRouter(t *testing.T) {
	topo, store, opts := deployment{topo: gr50, runFor: -1}.open(t)
	clone, err := cluster.FromStore(topo, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		if err := clone.ResetToStore(store); err != nil {
			t.Fatal(err)
		}
	}
	if clean := testing.AllocsPerRun(20, reset); clean > 4 {
		t.Errorf("a clean reset of %d routers allocates %.0f times, want at most 4", len(topo.Nodes), clean)
	}
}
