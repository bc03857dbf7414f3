// Package updatepaths records path conditions from the real BGP UPDATE
// handler: it runs a short concolic exploration of one router's handler over
// pooled clones of a converged deployment, exactly as a campaign unit does,
// and hands back every executed machine. The solver's equivalence tests and
// benchmarks replay these paths instead of hand-written constraint lists.
package updatepaths

import (
	"fmt"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/fuzz"
	"github.com/dice-project/dice/internal/topology"
)

// Deployment names a topology and the options its routers are built with.
type Deployment struct {
	Name string
	Topo *topology.Topology
	Opts cluster.Options
}

// Deployments returns the three deployments the benchmark explores: the
// 50-router Gao–Rexford probe, the bird+obgpd+frr demo and the 27-router demo.
func Deployments() []Deployment {
	return []Deployment{
		{Name: "gr50", Topo: topology.GaoRexford(5, 15, 30, 1), Opts: cluster.Options{Seed: 1, GaoRexford: true}},
		{Name: "hetero3", Topo: topology.Demo27Hetero3(), Opts: cluster.Options{Seed: 1}},
		{Name: "demo27", Topo: topology.Demo27(), Opts: cluster.Options{Seed: 1}},
	}
}

// Record explores up to n inputs of the UPDATE handler of the deployment's
// best-connected router, fed by its first neighbour, and returns the machine
// of every execution in order. Seeds come from the grammar fuzzer plus the
// neighbour's own announcement, as in a campaign unit, and one announcement
// of eight prefixes, whose path runs deeper than any campaign seed's.
func Record(d Deployment, seed int64, n int) ([]*concolic.Machine, error) {
	live, err := cluster.Build(d.Topo, d.Opts)
	if err != nil {
		return nil, err
	}
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		return nil, err
	}
	pool := cluster.NewClonePool(d.Topo, store, d.Opts)
	explorer := d.Topo.BestConnected()
	peers := d.Topo.NeighborsOf(explorer)
	if len(peers) == 0 {
		return nil, fmt.Errorf("updatepaths: %s has no neighbours", explorer)
	}
	peer := peers[0]

	var machines []*concolic.Machine
	execute := func(in *concolic.Input, m *concolic.Machine) error {
		shadow, err := pool.Lease()
		if err != nil {
			return err
		}
		defer pool.Release(shadow)
		shadow.Router(explorer).ExploreNextUpdate(m, peer)
		shadow.InjectRaw(peer, explorer, bgp.FrameUpdate(in.Region("update")))
		shadow.Net.RunQuiescent(20000)
		machines = append(machines, m)
		return nil
	}
	e := concolic.NewExplorer(execute, concolic.ExplorerOptions{MaxExecutions: n, Seed: seed})
	var pools fuzz.Options
	pools.Seed = seed
	for _, node := range d.Topo.Nodes {
		pools.Prefixes = append(pools.Prefixes, node.Prefixes...)
		pools.ASNs = append(pools.ASNs, node.AS)
		pools.NextHops = append(pools.NextHops, uint32(node.RouterID))
	}
	for _, in := range fuzz.New(pools).Corpus(2) {
		e.AddSeed(in)
	}
	p := d.Topo.Node(peer)
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{p.AS}, NextHop: uint32(p.RouterID)}
	if len(p.Prefixes) > 0 {
		e.AddSeed(concolic.NewInput("update", (&bgp.Update{Attrs: attrs, NLRI: p.Prefixes[:1]}).EncodeBody()))
	}
	e.AddSeed(concolic.NewInput("update", (&bgp.Update{Attrs: attrs, NLRI: pools.Prefixes[:min(8, len(pools.Prefixes))]}).EncodeBody()))
	if _, err := e.Run(); err != nil {
		return nil, err
	}
	return machines, nil
}
