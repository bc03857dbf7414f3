package cluster_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/node/procdriver"
	"github.com/dice-project/dice/internal/speaker"
	"github.com/dice-project/dice/internal/topology"
)

// A router hands out the checkpoint it last built until it next moves, so the
// safety net of a cut is this file: whatever happened to a cluster, the
// snapshot it hands out must be byte-identical to one whose every checkpoint
// is built afresh by the router's one builder, speaker.Router.Checkpoint —
// which never reads or writes the cached one.

// uncached builds r's checkpoint afresh. For a proc: router the builder is the
// parent-side mirror's, brought in step with the child first.
func uncached(r node.Router) node.Checkpoint {
	if m := procdriver.Mirror(r); m != nil {
		return &procdriver.Checkpoint{Inner: m.(*speaker.Router).Checkpoint()}
	}
	return r.(*speaker.Router).Checkpoint()
}

// inProcess reports whether r runs in this process (its hooks run outside any
// proxy lock, so they may read the router they are installed on).
func inProcess(r node.Router) bool { return procdriver.Mirror(r) == nil }

// cutChecker remembers every router's last checkpoint and its encoding.
type cutChecker struct {
	t      *testing.T
	c      *cluster.Cluster
	ptrs   map[string]node.Checkpoint
	bytes  map[string][]byte
	events int
	// reused and rebuilt count, over the walk, the checkpoints handed out
	// again and the ones built anew.
	reused, rebuilt int
}

func encodeNode(t *testing.T, cp node.Checkpoint) []byte {
	t.Helper()
	data, err := checkpoint.EncodeNode(cp)
	if err != nil {
		t.Fatalf("encode %s: %v", cp.NodeName(), err)
	}
	return data
}

// check compares the cluster's snapshot with the uncached one. quiet says the
// step ran nothing that may move a router other than emulator events: then a
// step that processed no event must leave every pointer as it was.
func (k *cutChecker) check(step string, quiet bool) {
	k.t.Helper()
	snap := k.c.Snapshot()
	fresh := &checkpoint.Snapshot{At: snap.At, InFlight: snap.InFlight, Consistent: snap.Consistent,
		Nodes: make(map[string]node.Checkpoint, len(snap.Nodes))}
	for name, r := range k.c.Routers {
		fresh.Nodes[name] = uncached(r)
	}
	got, err := checkpoint.Encode(snap)
	if err != nil {
		k.t.Fatalf("%s: encode: %v", step, err)
	}
	want, err := checkpoint.Encode(fresh)
	if err != nil {
		k.t.Fatalf("%s: encode uncached: %v", step, err)
	}
	if !bytes.Equal(got, want) {
		for name := range snap.Nodes {
			if !bytes.Equal(encodeNode(k.t, snap.Nodes[name]), encodeNode(k.t, fresh.Nodes[name])) {
				k.t.Errorf("%s: %s handed out a stale checkpoint", step, name)
			}
		}
		k.t.Fatalf("%s: the snapshot differs from the uncached one", step)
	}
	events := k.c.Net.Stats().EventsProcessed
	still := quiet && events == k.events
	k.events = events
	for name, cp := range snap.Nodes {
		if again := k.c.Router(name).TakeCheckpoint(); again != cp {
			k.t.Fatalf("%s: %s handed out two checkpoints with nothing in between", step, name)
		}
		enc := encodeNode(k.t, cp)
		if prev := k.ptrs[name]; prev != nil {
			// Immutable: the one handed out before still encodes as it did.
			if !bytes.Equal(encodeNode(k.t, prev), k.bytes[name]) {
				k.t.Fatalf("%s: %s's earlier checkpoint changed after it was handed out", step, name)
			}
			switch {
			case prev == cp:
				k.reused++
			case still:
				k.t.Fatalf("%s: %s did not move but built a new checkpoint", step, name)
			default:
				k.rebuilt++
			}
		}
		k.ptrs[name], k.bytes[name] = cp, enc
	}
}

// announcement is a well-formed UPDATE from peer that router accepts: the
// peer's own prefix under a fresh more-specific, so the handler goes on
// changing state after its hook has run.
func announcement(topo *topology.Topology, peer string, i int) []byte {
	n := topo.Node(peer)
	u := &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{n.AS}, NextHop: uint32(n.RouterID)},
		NLRI:  []bgp.Prefix{bgp.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i%250))},
	}
	return bgp.Encode(u)
}

// TestCutWalkEquivalentToUncached is the seeded walk: a clone lives through
// mixed activity — inputs, partial, full and event-by-event runs, pooled
// resets, invariant checks, hooks (one crashes the handler, one cuts the router
// from inside it), armed machines — and after every step its snapshot is
// compared with the uncached one. Deleting any one touch() call in internal/speaker fails it.
func TestCutWalkEquivalentToUncached(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			topo, store, opts := d.open(t)
			c, err := cluster.FromStore(topo, store, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := newWalker(topo, 29)
			k := &cutChecker{t: t, c: c, ptrs: map[string]node.Checkpoint{}, bytes: map[string][]byte{}}
			k.check("fresh clone", true)
			snooped := 0
			for i := 0; i < 90; i++ {
				router, peer := w.edge()
				switch w.rng.Intn(11) {
				case 0, 1:
					// One of the reset walk's steps, unsettled: whatever it
					// injected is still in flight.
					name, step := w.next()
					if step != nil {
						step(c)
					}
					k.check(fmt.Sprintf("step %d (%s)", i, name), true)
				case 2:
					c.Net.Start()
					k.check(fmt.Sprintf("step %d (start)", i), false)
				case 3:
					c.Run(c.Net.Now() + 12*time.Millisecond)
					k.check(fmt.Sprintf("step %d (partial run)", i), true)
				case 4:
					c.Net.RunQuiescent(0)
					k.check(fmt.Sprintf("step %d (run to quiescence)", i), true)
				case 5:
					if err := c.ResetToStore(store); err != nil {
						t.Fatalf("step %d: reset: %v", i, err)
					}
					k.check(fmt.Sprintf("step %d (pooled reset)", i), false)
				case 6:
					for _, name := range c.RouterNames() {
						c.Router(name).CheckInvariants()
					}
					k.check(fmt.Sprintf("step %d (check invariants)", i), false)
				case 7:
					// A hook that cuts its own router halfway through the
					// UPDATE: what it saw must not be handed out afterwards.
					r := c.Router(router)
					if !inProcess(r) {
						continue
					}
					var inside node.Checkpoint
					r.SetUpdateHook(func(node.HookContext, string, *bgp.Update) error {
						inside = r.TakeCheckpoint()
						snooped++
						return nil
					})
					c.InjectRaw(peer, router, announcement(topo, peer, i))
					c.Net.RunQuiescent(0)
					if inside != nil && r.TakeCheckpoint() == inside {
						t.Fatalf("step %d: %s hands out the checkpoint its hook took mid-UPDATE", i, router)
					}
					k.check(fmt.Sprintf("step %d (snooping hook at %s)", i, router), true)
				case 8:
					// The handler crashes, then a read path writes the
					// checkpointed InvariantFailures counter.
					faults.InstallCodeFaults(c.Routers, alwaysCrash(router))
					c.InjectRaw(peer, router, announcement(topo, peer, i))
					c.Net.RunQuiescent(0)
					k.check(fmt.Sprintf("step %d (crash at %s)", i, router), true)
					c.Router(router).CheckInvariants()
					k.check(fmt.Sprintf("step %d (crash at %s, checked)", i, router), false)
				case 9:
					// A malformed message resets the session on both sides and
					// the retry timers bring it back. Event by event, with a cut
					// after the first few and after every timer: there the last
					// thing a router did is a timer.
					c.InjectRaw(peer, router, []byte{0xde, 0xad})
					for j := 0; j < 400; j++ {
						timers := c.Net.Stats().TimersFired
						if !c.Net.Step() {
							break
						}
						if j < 4 || c.Net.Stats().TimersFired != timers {
							k.check(fmt.Sprintf("step %d (malformed at %s, event %d)", i, router, j), true)
						}
					}
				default:
					for _, r := range c.Routers {
						r.SetUpdateHook(nil)
					}
					k.check(fmt.Sprintf("step %d (hooks cleared)", i), true)
				}
				if err := c.Unhealthy(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if k.reused == 0 || k.rebuilt == 0 {
				t.Errorf("walk reused %d checkpoints and rebuilt %d: one side is vacuous", k.reused, k.rebuilt)
			}
			if !d.proc && snooped == 0 {
				t.Errorf("no hook ever ran inside a handler: the snooping step is vacuous")
			}
			discard(c)
		})
	}
}

// TestOneMovedRouterIsTheOnlyOneRecut: a KEEPALIVE moves the router it is
// delivered to and nobody else; the cut after it rebuilds that one checkpoint
// and hands out every other one again.
func TestOneMovedRouterIsTheOnlyOneRecut(t *testing.T) {
	topo := topology.Demo27()
	c := cluster.MustBuild(topo, cluster.Options{Seed: 3, GaoRexford: true})
	c.Converge()
	before := c.Snapshot()
	for name, cp := range c.Snapshot().Nodes {
		if cp != before.Nodes[name] {
			t.Fatalf("%s: two cuts of a converged deployment differ by pointer", name)
		}
	}
	target := topo.NodeNames()[0]
	move(c, topo, []string{target})
	for name, cp := range c.Snapshot().Nodes {
		if recut := cp != before.Nodes[name]; recut != (name == target) {
			t.Errorf("%s: re-cut = %v, want %v", name, recut, name == target)
		}
	}
}

var snapshotSink *checkpoint.Snapshot

// BenchmarkSnapshot is the layer benchmark of the consistent cut
// (cluster.cut_ms in bench/): all-moved is what every cut cost before routers
// kept their last checkpoint, clean is the floor.
func BenchmarkSnapshot(b *testing.B) {
	for _, d := range []deployment{deployments[2], {name: "demo27", topo: topology.Demo27, runFor: -1}, deployments[4]} {
		for _, rc := range resetCases {
			b.Run(d.name+"/"+rc.name, func(b *testing.B) {
				topo, store, opts := d.open(b)
				c, err := cluster.FromStore(topo, store, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer discard(c)
				routers := rc.moved(topo)
				c.Snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(routers) > 0 {
						b.StopTimer()
						move(c, topo, routers)
						b.StartTimer()
					}
					snapshotSink = c.Snapshot()
				}
			})
		}
	}
}
