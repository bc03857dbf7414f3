package procdriver_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/node/procdriver"
	"github.com/dice-project/dice/internal/topology"
)

// TestMain hosts both sides of the driver: re-executions of this binary enter
// child mode in MaybeRunChild and never reach the suite.
func TestMain(m *testing.M) {
	procdriver.MaybeRunChild()
	os.Exit(m.Run())
}

// requireSpawn skips the test where re-executing the test binary is forbidden
// (sandboxed builders), and tears the child fleet down afterwards.
func requireSpawn(t *testing.T) {
	t.Helper()
	if err := procdriver.SpawnCheck(); err != nil {
		t.Skipf("subprocess spawning unavailable: %v", err)
	}
	t.Cleanup(func() {
		procdriver.KillAll()
		if n := procdriver.LiveChildren(); n != 0 {
			t.Errorf("%d children still live after KillAll", n)
		}
	})
}

// innerCanonical reduces a router to its canonical checkpoint bytes, unwrapping
// the proc layer so subprocess-backed and in-process nodes are byte-comparable.
func innerCanonical(t *testing.T, r node.Router) []byte {
	t.Helper()
	cp := r.TakeCheckpoint()
	if pc, ok := cp.(*procdriver.Checkpoint); ok {
		cp = pc.Inner
	}
	data, err := checkpoint.EncodeNode(cp)
	if err != nil {
		t.Fatalf("EncodeNode(%s): %v", r.ID(), err)
	}
	return data
}

// TestProcConvergeMatchesInProcess is the core isolation-equivalence check:
// for every wrapped speaker, a cluster of subprocess-backed nodes must
// converge to byte-identical canonical state as the same cluster in-process.
func TestProcConvergeMatchesInProcess(t *testing.T) {
	requireSpawn(t)
	for _, impl := range procdriver.Wrapped() {
		t.Run(impl, func(t *testing.T) {
			opts := cluster.Options{Seed: 7}
			inproc := cluster.MustBuild(topology.Line(3).SetImpl(impl), opts)
			proc := cluster.MustBuild(topology.Line(3).SetImpl("proc:"+impl), opts)
			if got := procdriver.LiveChildren(); got < 3 {
				t.Fatalf("LiveChildren = %d after building 3 proc nodes", got)
			}
			inproc.Converge()
			proc.Converge()
			for _, name := range proc.RouterNames() {
				if got := proc.Router(name).Implementation(); got != "proc:"+impl {
					t.Errorf("%s runs %q, want proc:%s", name, got, impl)
				}
				got := innerCanonical(t, proc.Router(name))
				want := innerCanonical(t, inproc.Router(name))
				if !bytes.Equal(got, want) {
					t.Errorf("%s: subprocess state diverges from in-process (%d vs %d bytes)", name, len(got), len(want))
				}
			}
		})
	}
}

// TestProcMixedInterop deploys all three speakers with one behind the process
// boundary: the mix must interoperate to full reachability, and the proc tag
// must surface in the deployment's implementation list.
func TestProcMixedInterop(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(3).SetImpl("proc:frr", "R2").SetImpl("obgpd", "R3")
	c := cluster.MustBuild(topo, cluster.Options{Seed: 2})
	c.Converge()
	for _, name := range c.RouterNames() {
		for _, tn := range topo.Nodes {
			if c.Router(name).LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s missing route to %s across the process boundary", name, tn.Prefixes[0])
			}
		}
	}
	if impls := c.Implementations(); !reflect.DeepEqual(impls, []string{"bird", "obgpd", "proc:frr"}) {
		t.Errorf("Implementations() = %v", impls)
	}
	if err := c.Unhealthy(); err != nil {
		t.Errorf("healthy deployment reports: %v", err)
	}
}

// TestProcSnapshotEncodeRestore drives a subprocess-backed snapshot through
// the full canonical codec: encode to bytes, decode, restore a shadow cluster,
// and require the restored nodes to carry the snapshot's exact state.
func TestProcSnapshotEncodeRestore(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(2).SetImpl("proc:bird")
	opts := cluster.Options{Seed: 4}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	snap := live.Snapshot()

	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatalf("Encode over proc checkpoints: %v", err)
	}
	decoded, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for name, cp := range decoded.Nodes {
		if got := cp.Implementation(); got != "proc:bird" {
			t.Errorf("decoded %s tagged %q", name, got)
		}
	}

	shadow, err := cluster.FromSnapshot(topo, decoded, opts)
	if err != nil {
		t.Fatalf("FromSnapshot over decoded proc snapshot: %v", err)
	}
	for _, name := range shadow.RouterNames() {
		got := innerCanonical(t, shadow.Router(name))
		want, err := checkpoint.EncodeNode(snap.Nodes[name].(*procdriver.Checkpoint).Inner)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: restored subprocess state differs from snapshot", name)
		}
	}
}

// TestProcPooledResetEquivalentToColdRebuild extends the golden
// clone-lifecycle property across the process boundary: a pooled clone of
// subprocess-backed nodes, reset after use, must be byte-identical to a cold
// rebuild and evolve identically under further execution.
func TestProcPooledResetEquivalentToColdRebuild(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(3).SetImpl("proc:bird", "R2")
	opts := cluster.Options{Seed: 3}
	live := cluster.MustBuild(topo, opts)
	live.Net.Start()
	live.Run(60 * time.Millisecond) // mid-convergence: channel state in the cut
	snap := live.Snapshot()

	store, err := checkpoint.NewStore(snap)
	if err != nil {
		t.Fatalf("NewStore over proc snapshot: %v", err)
	}
	pool := cluster.NewClonePool(topo, store, opts)

	peerAS := topo.Node("R1").AS
	for i := 0; i < 3; i++ {
		clone, err := pool.Lease()
		if err != nil {
			t.Fatalf("Lease %d: %v", i, err)
		}
		clone.InjectUpdate("R1", "R2", exploredInput(i, peerAS))
		clone.Net.RunQuiescent(0)
		pool.Release(clone)
	}

	pooled, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cluster.FromSnapshot(topo, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clusterJSON(t, pooled), clusterJSON(t, cold); got != want {
		t.Fatalf("pooled-reset proc clone differs from cold rebuild")
	}
	in := exploredInput(99, peerAS)
	pooled.InjectUpdate("R1", "R2", in)
	cold.InjectUpdate("R1", "R2", in)
	pooled.Net.RunQuiescent(0)
	cold.Net.RunQuiescent(0)
	if got, want := clusterJSON(t, pooled), clusterJSON(t, cold); got != want {
		t.Fatalf("pooled-reset proc clone diverged from cold rebuild after execution")
	}
	if s := pool.Stats(); s.Leases != s.Releases+1 || s.Discards != 0 {
		t.Errorf("pool stats off: %+v", s)
	}
}

// clusterJSON is the cluster-wide canonical form used by the pool equivalence
// tests: JSON sorts the snapshot's maps, and node checkpoints expose only
// their canonical exported state.
func clusterJSON(t *testing.T, c *cluster.Cluster) string {
	t.Helper()
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return string(data)
}

func exploredInput(i int, peerAS bgp.ASN) *bgp.Update {
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{peerAS, bgp.ASN(64900 + i)}, NextHop: uint32(100 + i)}
	return &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{{Addr: uint32(88)<<24 | uint32(i+1)<<16, Len: 16}}}
}

// TestProcHookFaultEquivalence: injected handler bugs run parent-side (fault
// closures cannot cross the boundary) but must behave exactly as in-process —
// same crash verdict, same mutation effects, same resulting state.
func TestProcHookFaultEquivalence(t *testing.T) {
	requireSpawn(t)
	const trigger = bgp.Community(0xFFFF0029)

	build := func(impl string) *cluster.Cluster {
		c := cluster.MustBuild(topology.Line(2).SetImpl(impl), cluster.Options{Seed: 5})
		c.Converge()
		faults.InstallCodeFaults(c.Routers,
			faults.CommunityCrash("R2", trigger),
			faults.DroppedWithdrawals("R1"))
		return c
	}
	inproc := build("bird")
	proc := build("proc:bird")

	// The crash path: a community-carrying UPDATE kills R2's handler.
	crash := &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topology.Line(2).Node("R1").AS}, NextHop: 1, Communities: []bgp.Community{trigger}},
		NLRI:  []bgp.Prefix{{Addr: 77 << 24, Len: 16}},
	}
	// The mutation path: R1's buggy handler silently drops the withdrawal.
	mixed := &bgp.Update{
		Attrs:     &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topology.Line(2).Node("R2").AS}, NextHop: 2},
		NLRI:      []bgp.Prefix{{Addr: 66 << 24, Len: 16}},
		Withdrawn: []bgp.Prefix{{Addr: 10<<24 | 2<<16, Len: 16}},
	}
	for _, c := range []*cluster.Cluster{inproc, proc} {
		c.InjectUpdate("R1", "R2", crash)
		c.InjectUpdate("R2", "R1", mixed)
		c.Net.RunQuiescent(0)
	}

	gotPanic, gotMsg := proc.Router("R2").Panicked()
	wantPanic, wantMsg := inproc.Router("R2").Panicked()
	if gotPanic != wantPanic || gotMsg != wantMsg {
		t.Errorf("crash verdict differs: proc (%v %q), in-process (%v %q)", gotPanic, gotMsg, wantPanic, wantMsg)
	}
	if !gotPanic {
		t.Errorf("community crash did not fire across the process boundary")
	}
	for _, name := range []string{"R1", "R2"} {
		if got, want := innerCanonical(t, proc.Router(name)), innerCanonical(t, inproc.Router(name)); !bytes.Equal(got, want) {
			t.Errorf("%s: state after hook faults diverges from in-process", name)
		}
	}
	if got, want := proc.Router("R2").Stats().HandlerCrashes, inproc.Router("R2").Stats().HandlerCrashes; got != want || got == 0 {
		t.Errorf("HandlerCrashes: proc %d, in-process %d", got, want)
	}
}

// TestProcConcolicParity: an armed machine driven through a subprocess-backed
// explorer must record the same branch path, assignment and truncation as the
// in-process run — branches recorded in the child (parse, pre/post-hook) and
// in the parent (the fault hook) merge into one coherent trace.
func TestProcConcolicParity(t *testing.T) {
	requireSpawn(t)
	const trigger = bgp.Community(0xFFFF0031)
	body := (&bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001}, NextHop: 9, Communities: []bgp.Community{trigger}},
		NLRI:  []bgp.Prefix{{Addr: 55 << 24, Len: 16}},
	}).EncodeBody()

	run := func(impl string) (*concolic.Machine, []byte) {
		c := cluster.MustBuild(topology.Line(2).SetImpl(impl), cluster.Options{Seed: 6})
		c.Converge()
		faults.InstallCodeFaults(c.Routers, faults.CommunityCrash("R2", trigger))
		m := concolic.NewMachine(concolic.NewInput("update", body), concolic.MachineOptions{})
		c.Router("R2").ExploreNextUpdate(m, "R1")
		c.InjectRaw("R1", "R2", bgp.FrameUpdate(body))
		c.Net.RunQuiescent(0)
		return m, innerCanonical(t, c.Router("R2"))
	}
	procM, procState := run("proc:bird")
	inM, inState := run("bird")

	procPath, inPath := procM.Path(), inM.Path()
	if len(procPath) != len(inPath) {
		t.Fatalf("path lengths differ: proc %d, in-process %d", len(procPath), len(inPath))
	}
	for i := range inPath {
		if procPath[i].Site != inPath[i].Site || procPath[i].Taken != inPath[i].Taken {
			t.Errorf("branch %d differs: proc %s/%v, in-process %s/%v",
				i, procPath[i].Site, procPath[i].Taken, inPath[i].Site, inPath[i].Taken)
		}
	}
	if procM.PathSignature() != inM.PathSignature() {
		t.Errorf("path signatures differ: the recorded conditions are not structurally identical")
	}
	if !reflect.DeepEqual(procM.Assignment(), inM.Assignment()) {
		t.Errorf("assignments differ:\n proc %v\n in-process %v", procM.Assignment(), inM.Assignment())
	}
	if procM.Truncated() != inM.Truncated() {
		t.Errorf("truncation differs")
	}
	if !bytes.Equal(procState, inState) {
		t.Errorf("explorer state after armed execution diverges from in-process")
	}
	if len(inPath) == 0 {
		t.Errorf("no branches recorded; the parity check is vacuous")
	}
}

// TestProcCrashSurfaces kills a child out from under its proxy: the next
// delivery must discover the death promptly, the proxy and cluster must go
// unhealthy, and state reads must keep serving the last mirrored state
// instead of hanging.
func TestProcCrashSurfaces(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(2).SetImpl("proc:bird")
	c := cluster.MustBuild(topo, cluster.Options{Seed: 8})
	c.Converge()
	victim := c.Router("R2")
	preCrash := innerCanonical(t, victim)

	if !procdriver.Kill(victim) {
		t.Fatal("Kill did not find a live child behind R2")
	}
	// The proxy has not interacted with the child since; it cannot know yet.
	start := time.Now()
	c.InjectUpdate("R1", "R2", exploredInput(1, topo.Node("R1").AS))
	c.Net.RunQuiescent(0)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("crash detection took %s; the EOF path should not wait out the RPC timeout", elapsed)
	}

	if victimErr := victim.(interface{ Unhealthy() error }).Unhealthy(); victimErr == nil {
		t.Fatal("delivery to a dead subprocess left the proxy healthy")
	}
	if err := c.Unhealthy(); err == nil {
		t.Fatal("cluster with a dead subprocess reports healthy")
	}
	// Reads serve the stale mirror — no hang, no fabricated progress.
	if got := innerCanonical(t, victim); !bytes.Equal(got, preCrash) {
		t.Errorf("post-crash reads do not serve the last mirrored state")
	}
	if victim.LocRIB() == nil {
		t.Errorf("post-crash LocRIB read returned nothing")
	}
}

// TestPoolDiscardsDeadProcClone: a leased clone whose subprocess died is
// discarded on release — counted, never re-pooled — so Leases == Releases
// holds and no later lease hands out a dead cluster.
func TestPoolDiscardsDeadProcClone(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(2).SetImpl("proc:bird")
	opts := cluster.Options{Seed: 9}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewClonePool(topo, store, opts)

	clone, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if !procdriver.Kill(clone.Router("R2")) {
		t.Fatal("no child behind the clone's R2")
	}
	clone.InjectUpdate("R1", "R2", exploredInput(2, topo.Node("R1").AS))
	clone.Net.RunQuiescent(0)
	if clone.Unhealthy() == nil {
		t.Fatal("clone with killed child reports healthy")
	}
	pool.Release(clone)

	s := pool.Stats()
	if s.Leases != 1 || s.Releases != 1 || s.Discards != 1 {
		t.Errorf("pool stats after dead release: %+v", s)
	}
	if pool.Size() != 0 {
		t.Errorf("dead clone was re-pooled")
	}
	if pool.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after release", pool.Outstanding())
	}

	// The pool recovers: the next lease cold-builds a healthy clone.
	next, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if next.Unhealthy() != nil {
		t.Errorf("fresh lease after discard is unhealthy: %v", next.Unhealthy())
	}
	pool.Release(next)
}

// TestPoolDiscardsCloneWhoseChildDiedIdle: a pooled clone nobody touched is
// not rewound on its next lease, so no round trip would notice that one of
// its subprocesses died meanwhile — the lease must notice anyway and fall
// through to a cold build instead of handing out a dead cluster.
func TestPoolDiscardsCloneWhoseChildDiedIdle(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(2).SetImpl("proc:bird")
	opts := cluster.Options{Seed: 9}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewClonePool(topo, store, opts)
	clone, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(clone)
	if !procdriver.Kill(clone.Router("R2")) {
		t.Fatal("no child behind the clone's R2")
	}
	next, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if next == clone || next.Unhealthy() != nil {
		t.Errorf("the pool leased a clone whose child died while it was idle")
	}
	if s := pool.Stats(); s.Discards != 1 || s.ColdBuilds != 2 {
		t.Errorf("pool stats after an idle death: %+v, want 1 discard and 2 cold builds", s)
	}
	pool.Release(next)
}

// TestProcResetClearsHookAndMachine: ResetTo is the clone-recycling rewind;
// it must drop the armed machine and installed hook on both sides of the
// boundary, exactly as the in-process routers do.
func TestProcResetClearsHookAndMachine(t *testing.T) {
	requireSpawn(t)
	topo := topology.Line(2).SetImpl("proc:bird")
	opts := cluster.Options{Seed: 10}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	const trigger = bgp.Community(0xFFFF0099)
	faults.InstallCodeFaults(live.Routers, faults.CommunityCrash("R2", trigger))
	m := concolic.NewMachine(concolic.NewInput("update", []byte{1}), concolic.MachineOptions{})
	live.Router("R2").ExploreNextUpdate(m, "R1")

	if err := live.ResetToStore(store); err != nil {
		t.Fatalf("ResetToStore: %v", err)
	}
	// A triggering update after the reset must not crash (hook gone) and must
	// not record branches (machine disarmed).
	crash := &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Node("R1").AS}, NextHop: 1, Communities: []bgp.Community{trigger}},
		NLRI:  []bgp.Prefix{{Addr: 44 << 24, Len: 16}},
	}
	live.InjectUpdate("R1", "R2", crash)
	live.Net.RunQuiescent(0)
	if panicked, msg := live.Router("R2").Panicked(); panicked {
		t.Errorf("hook survived ResetTo: %s", msg)
	}
	if len(m.Path()) != 0 {
		t.Errorf("machine survived ResetTo: %d branches recorded", len(m.Path()))
	}
}
