package bird

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
)

// canonical returns a deterministic byte form of a checkpoint (encoding/json
// sorts map keys, and checkpoint route lists are already in canonical order).
func canonical(t testing.TB, cp *Checkpoint) string {
	t.Helper()
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	return string(data)
}

// convergedPair wires two routers over netem, converges them and returns the
// first one (which now has established sessions and learned routes).
func convergedPair(t testing.TB) *Router {
	t.Helper()
	mkCfg := func(name string, as bgp.ASN, id bgp.RouterID, prefix, peer string, peerAS bgp.ASN) *Config {
		return &Config{
			Name: name, AS: as, RouterID: id,
			Networks: []bgp.Prefix{bgp.MustParsePrefix(prefix)},
			Policies: map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
			Neighbors: []NeighborConfig{
				{Name: peer, AS: peerAS, Import: "ALL", Export: "ALL"},
			},
		}
	}
	net := netem.New(netem.Options{Seed: 1})
	r1 := MustNew(mkCfg("R1", 65001, 1, "10.1.0.0/16", "R2", 65002))
	r2 := MustNew(mkCfg("R2", 65002, 2, "10.2.0.0/16", "R1", 65001))
	net.AddNode(r1)
	net.AddNode(r2)
	net.Connect("R1", "R2", netem.LinkConfig{Delay: time.Millisecond})
	net.RunQuiescent(0)
	if r1.SessionState("R2") != speaker.StateEstablished {
		t.Fatal("pair did not converge")
	}
	return r1
}

func TestImageRestoreMatchesColdRestore(t *testing.T) {
	cp := convergedPair(t).Checkpoint()

	cold, err := Dialect.Restore(cp)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	im, err := Dialect.ImageOf(cp)
	if err != nil {
		t.Fatalf("ImageOf: %v", err)
	}
	st, err := Dialect.DecodeState(cp)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	fast, err := im.Restore(st)
	if err != nil {
		t.Fatalf("Image.Restore: %v", err)
	}
	if got, want := canonical(t, fast.Checkpoint()), canonical(t, cold.Checkpoint()); got != want {
		t.Errorf("image restore diverged from cold restore:\n got %s\nwant %s", got, want)
	}
}

func TestResetToRewindsDirtyRouter(t *testing.T) {
	cp := convergedPair(t).Checkpoint()
	im, err := Dialect.ImageOf(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Dialect.DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonical(t, clone.Checkpoint())

	// Dirty every kind of mutable state: RIBs, counters, events, sessions,
	// crash flags, fault hooks and armed explorations.
	hookCalls := 0
	clone.SetUpdateHook(func(r node.HookContext, from string, u *bgp.Update) error {
		hookCalls++
		if u.NLRI[0].Len == 24 {
			return errors.New("boom")
		}
		return nil
	})
	announce := func(prefix string) []byte {
		attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65002, 65099}, NextHop: 9}
		return bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix(prefix)}})
	}
	net := netem.New(netem.Options{Seed: 2})
	net.AddNode(clone)
	net.InjectMessage("R2", "R1", announce("99.9.0.0/16"), 0)
	net.InjectMessage("R2", "R1", announce("99.9.9.0/24"), 0)
	net.InjectMessage("R2", "R1", bgp.Encode(&bgp.Notification{Code: bgp.ErrCease}), 0)
	net.Run(net.Now() + time.Second)
	clone.ExploreNextUpdate(concolic.NewMachine(concolic.NewInput("update", nil), concolic.MachineOptions{}), "R2")
	if p, _ := clone.Panicked(); !p || hookCalls != 2 {
		t.Fatalf("dirtying did not crash the handler (panicked %v, %d hook calls)", p, hookCalls)
	}
	if canonical(t, clone.Checkpoint()) == baseline {
		t.Fatal("dirtying the clone did not change its checkpoint; test is vacuous")
	}

	if err := clone.ResetTo(im, st); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if got := canonical(t, clone.Checkpoint()); got != baseline {
		t.Errorf("reset clone differs from baseline:\n got %s\nwant %s", got, baseline)
	}
	if p, _ := clone.Panicked(); p {
		t.Errorf("reset must clear the crash flag")
	}
	// The hook and the armed machine are gone: the next UPDATE is handled
	// concretely and unobserved.
	net = netem.New(netem.Options{Seed: 2})
	net.AddNode(clone)
	net.InjectMessage("R2", "R1", announce("99.9.9.0/24"), 0)
	net.RunQuiescent(0)
	if hookCalls != 2 {
		t.Errorf("reset must clear the fault hook")
	}
	if clone.Stats().ExploredSymbolic != 0 {
		t.Errorf("reset must disarm the pending exploration")
	}
}

// TestRestoredClonesIsolated verifies that routes handed out by a State are
// deep-copied per restore: mutating one clone's RIB attributes must not leak
// into a sibling restored from the same State.
func TestRestoredClonesIsolated(t *testing.T) {
	cp := convergedPair(t).Checkpoint()
	im, err := Dialect.ImageOf(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Dialect.DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	a, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	p := bgp.MustParsePrefix("10.2.0.0/16")
	if a.LocRIB().Best(p) == nil {
		t.Fatal("restored clone missing the learned route")
	}
	a.LocRIB().Best(p).Attrs.SetLocalPref(999)
	if b.LocRIB().Best(p).Attrs.EffectiveLocalPref() == 999 {
		t.Errorf("clones share route attributes with the decoded state")
	}
}

// TestImageOfSerializedCheckpoint covers the cross-process path: a checkpoint
// that lost its in-process config must image from the textual policy form.
func TestImageOfSerializedCheckpoint(t *testing.T) {
	cp := serialized(t, convergedPair(t).Checkpoint())
	im, err := Dialect.ImageOf(cp)
	if err != nil {
		t.Fatalf("ImageOf(serialized): %v", err)
	}
	st, err := Dialect.DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.SessionState("R2") != speaker.StateEstablished {
		t.Errorf("restored router lost session state")
	}
	if r.LocRIB().Best(bgp.MustParsePrefix("10.2.0.0/16")) == nil {
		t.Errorf("restored router lost learned routes")
	}
}
