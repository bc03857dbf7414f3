package main

import (
	"fmt"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/topology"
)

// Direct probes: calls into single public functions of a layer on the
// workload's own snapshot, repeated and reduced by their median. They give
// the layer numbers the per-input path never isolates (one Router.ResetTo,
// one Encode) and the ones it never makes at all (DiffSnapshot on a
// centralized campaign).

const probeReps = 9

// timeMedian runs fn reps times and returns the median duration in seconds.
func timeMedian(reps int, fn func() error) (float64, error) {
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return median(samples), nil
}

// backendProbe is one router implementation's numbers on this workload.
type backendProbe struct {
	Nodes        int
	ResetUs      float64 // one Router.ResetTo
	CheckpointUs float64 // one TakeCheckpoint
	UpdateUs     float64 // one UPDATE injected and settled on Line(2)
	NodeBytes    float64 // mean canonical encoding size
}

// probeBackends measures every implementation deployed in the workload: the
// reset and checkpoint costs on the workload's own routers (per node), and
// the cost of one settled UPDATE on a two-router line of that implementation.
func (e *env) probeBackends() (map[string]backendProbe, error) {
	shadow, err := cluster.FromStore(e.topo, e.store, e.copts)
	if err != nil {
		return nil, err
	}
	byImpl := make(map[string][]string)
	for _, name := range shadow.RouterNames() {
		impl := shadow.Router(name).Implementation()
		byImpl[impl] = append(byImpl[impl], name)
	}
	sizes, err := e.store.Sizes()
	if err != nil {
		return nil, err
	}
	out := make(map[string]backendProbe, len(byImpl))
	for impl, names := range byImpl {
		p := backendProbe{Nodes: len(names)}
		n := float64(len(names))
		reset, err := timeMedian(probeReps, func() error {
			for _, name := range names {
				if err := shadow.Router(name).ResetTo(e.store.Image(name), e.store.State(name)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.ResetUs = reset / n * 1e6
		cut, _ := timeMedian(probeReps, func() error {
			for _, name := range names {
				shadow.Router(name).TakeCheckpoint()
			}
			return nil
		})
		p.CheckpointUs = cut / n * 1e6
		for _, name := range names {
			p.NodeBytes += float64(sizes.PerNodeBytes[name]) / n
		}
		if p.UpdateUs, err = probeUpdate(impl, e.seed); err != nil {
			return nil, err
		}
		out[impl] = p
	}
	return out, nil
}

// probeUpdate times one UPDATE through a two-router line of the
// implementation: R1 alternately announces and withdraws a fresh prefix to
// R2, each settled to quiescence.
func probeUpdate(impl string, seed int64) (float64, error) {
	topo := topology.Line(2).SetImpl(impl, "R1", "R2")
	c, err := cluster.Build(topo, cluster.Options{Seed: seed, MaxEvents: clusterMaxEvent})
	if err != nil {
		return 0, err
	}
	c.Converge()
	r1 := topo.Node("R1")
	pfx := bgp.Prefix{Addr: 192<<24 | 168<<16, Len: 24}
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{r1.AS}, NextHop: uint32(r1.RouterID)}
	const updates = 64
	start := time.Now()
	for i := 0; i < updates; i++ {
		u := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{pfx}}
		if i%2 == 1 {
			u = &bgp.Update{Withdrawn: []bgp.Prefix{pfx}}
		}
		c.InjectUpdate("R1", "R2", u)
		c.Net.RunQuiescent(shadowMaxEvents)
	}
	if got := c.Router("R2").Stats().UpdatesReceived; got < updates {
		return 0, fmt.Errorf("update probe on %s: R2 received %d of %d updates", impl, got, updates)
	}
	return time.Since(start).Seconds() / updates * 1e6, nil
}

// checkpointProbe is the checkpoint layer's numbers on this workload's cut.
type checkpointProbe struct {
	EncodeMs, HashMs, StoreDecodeMs float64
	DiffMs, ApplyDeltaMs            float64
	RingPushMs, RingPushQuietMs     float64
	FromSnapshotMs, ColdBuildMs     float64
	SnapshotBytes, DeltaBytes       int
	NodesChanged                    int
	CASUniqueBlobs, CASSharedSaved  int
	CutMs                           []float64
}

// probeCheckpoint drives the write side of the checkpoint layer on the same
// snapshots the campaigns read: encode, hash, decode into a store, push into
// a ring (once fresh, once unchanged), and diff/apply against a snapshot
// that one settled UPDATE made differ from the baseline.
func (e *env) probeCheckpoint() (*checkpointProbe, error) {
	p := &checkpointProbe{}
	ms := func(fn func() error) (float64, error) {
		s, err := timeMedian(probeReps, fn)
		return s * 1e3, err
	}
	var err error
	if p.EncodeMs, err = ms(func() error {
		data, err := checkpoint.Encode(e.snap)
		p.SnapshotBytes = len(data)
		return err
	}); err != nil {
		return nil, err
	}
	if p.HashMs, err = ms(func() error {
		for _, name := range e.snap.NodeNames() {
			if _, err := checkpoint.HashNode(e.snap.Nodes[name]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if p.StoreDecodeMs, err = ms(func() error {
		_, err := checkpoint.NewStore(e.snap)
		return err
	}); err != nil {
		return nil, err
	}
	if p.FromSnapshotMs, err = ms(func() error {
		_, err := cluster.FromSnapshot(e.topo, e.snap, e.copts)
		return err
	}); err != nil {
		return nil, err
	}
	if p.ColdBuildMs, err = ms(func() error {
		_, err := cluster.FromStore(e.topo, e.store, e.copts)
		return err
	}); err != nil {
		return nil, err
	}
	for i := 0; i < 30; i++ {
		start := time.Now()
		e.deployed.Snapshot()
		p.CutMs = append(p.CutMs, time.Since(start).Seconds()*1e3)
	}

	// A snapshot that differs from the baseline by what one legitimate
	// announcement changes.
	shadow, err := cluster.FromStore(e.topo, e.store, e.copts)
	if err != nil {
		return nil, err
	}
	origin := e.topo.Nodes[len(e.topo.Nodes)-1]
	peer := e.topo.NeighborsOf(origin.Name)[0]
	shadow.InjectUpdate(origin.Name, peer, &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{origin.AS, origin.AS}, NextHop: uint32(origin.RouterID)},
		NLRI:  []bgp.Prefix{origin.Prefixes[0]},
	})
	shadow.Net.RunQuiescent(shadowMaxEvents)
	moved := shadow.Snapshot()

	var delta *checkpoint.SnapshotDelta
	if p.DiffMs, err = ms(func() error {
		delta, err = e.store.DiffSnapshot(moved)
		return err
	}); err != nil {
		return nil, err
	}
	p.DeltaBytes, p.NodesChanged = delta.WireSize(), len(delta.Patches)
	if p.ApplyDeltaMs, err = ms(func() error {
		_, err := e.store.ApplyDelta(delta)
		return err
	}); err != nil {
		return nil, err
	}

	// Ring pushes: a fresh ring per repeat, the first push interning every
	// node, the second finding all of them already held.
	var fresh, quiet []float64
	for i := 0; i < probeReps; i++ {
		ring := checkpoint.NewRing(0)
		start := time.Now()
		if _, err := ring.Push(e.snap.Clone()); err != nil {
			return nil, err
		}
		mid := time.Now()
		if _, err := ring.Push(e.snap.Clone()); err != nil {
			return nil, err
		}
		fresh = append(fresh, mid.Sub(start).Seconds()*1e3)
		quiet = append(quiet, time.Since(mid).Seconds()*1e3)
		p.CASUniqueBlobs, p.CASSharedSaved = ring.UniqueBlobs(), ring.SharedBytesSaved()
	}
	p.RingPushMs, p.RingPushQuietMs = median(fresh), median(quiet)
	return p, nil
}
