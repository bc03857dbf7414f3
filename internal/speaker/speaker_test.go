package speaker_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/bird"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/frr"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/obgpd"
	"github.com/dice-project/dice/internal/speaker"
)

// The suite is one table over the three dialect descriptors: every behaviour
// of the shared core is checked under every dialect.
var dialects = []*speaker.Dialect{bird.Dialect, frr.Dialect, obgpd.Dialect}

func forEachDialect(t *testing.T, body func(t *testing.T, d *speaker.Dialect)) {
	t.Helper()
	for _, d := range dialects {
		t.Run(d.Name, func(t *testing.T) { body(t, d) })
	}
}

func routerName(i int) string { return fmt.Sprintf("R%d", i) }

func prefixOf(i int) bgp.Prefix {
	return bgp.Prefix{Addr: uint32(10)<<24 | uint32(i)<<16, Len: 16}
}

// buildLine builds a line topology R1-R2-...-Rn of routers of one dialect
// with accept-all policies, each originating 10.i.0.0/16. Each tweak edits
// the configurations before the routers are built.
func buildLine(t *testing.T, d *speaker.Dialect, n int, tweaks ...func(cfg *node.Config)) (*netem.Network, map[string]*speaker.Router) {
	t.Helper()
	net := netem.New(netem.Options{Seed: 1})
	routers := make(map[string]*speaker.Router)
	for i := 1; i <= n; i++ {
		cfg := &node.Config{
			Name:     routerName(i),
			AS:       bgp.ASN(65000 + i),
			RouterID: bgp.RouterID(i),
			Networks: []bgp.Prefix{prefixOf(i)},
			Policies: map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
		}
		for _, j := range []int{i - 1, i + 1} {
			if j >= 1 && j <= n {
				cfg.Neighbors = append(cfg.Neighbors, node.NeighborConfig{Name: routerName(j), AS: bgp.ASN(65000 + j), Import: "ALL", Export: "ALL"})
			}
		}
		for _, tweak := range tweaks {
			tweak(cfg)
		}
		r, err := d.New(cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", cfg.Name, err)
		}
		routers[cfg.Name] = r
		net.AddNode(r)
	}
	for i := 1; i < n; i++ {
		net.Connect(netem.NodeID(routerName(i)), netem.NodeID(routerName(i+1)), netem.LinkConfig{Delay: 5 * time.Millisecond})
	}
	return net, routers
}

// announce frames an UPDATE for one prefix as R<from> would send it.
func announce(from int, prefix string, edit ...func(*bgp.PathAttributes)) []byte {
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{bgp.ASN(65000 + from)}, NextHop: 1}
	for _, e := range edit {
		e(attrs)
	}
	return bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix(prefix)}})
}

// canonical returns the checkpoint's canonical payload, the byte form every
// equivalence below is judged on.
func canonical(t *testing.T, d *speaker.Dialect, cp node.Checkpoint) string {
	t.Helper()
	payload, err := d.Backend().EncodeCanonical(cp)
	if err != nil {
		t.Fatalf("EncodeCanonical: %v", err)
	}
	return string(payload)
}

// serialized passes a checkpoint through its canonical encoding, as crossing
// a process boundary does: the result has lost its in-process configuration
// and restores from the dialect text.
func serialized(t *testing.T, d *speaker.Dialect, cp *speaker.Checkpoint) *speaker.Checkpoint {
	t.Helper()
	out, err := d.Backend().DecodeCanonical([]byte(canonical(t, d, cp)))
	if err != nil {
		t.Fatalf("DecodeCanonical: %v", err)
	}
	return out.(*speaker.Checkpoint)
}

func TestLineConvergesAndPropagates(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 4)
		net.RunQuiescent(0)
		for name, r := range routers {
			if r.Implementation() != d.Name {
				t.Fatalf("%s runs %q", name, r.Implementation())
			}
			for i := 1; i <= 4; i++ {
				if r.LocRIB().Best(prefixOf(i)) == nil {
					t.Errorf("%s missing prefix %s", name, prefixOf(i))
				}
			}
			if v := r.CheckInvariants(); len(v) != 0 {
				t.Errorf("%s invariant violations after clean convergence: %v", name, v)
			}
			if e := r.Engine(); e.ImsgsSEToRDE == 0 || e.ImsgsRDEToSE == 0 || e.RDEDecisions == 0 {
				t.Errorf("%s engine counters empty: %+v", name, e)
			}
		}
		r4 := routers["R4"]
		if r4.SessionState("R3") != speaker.StateEstablished || r4.SessionState("nobody") != speaker.StateIdle {
			t.Fatalf("session states: %v / %v", r4.SessionState("R3"), r4.SessionState("nobody"))
		}
		best := r4.LocRIB().Best(prefixOf(1))
		if want := []bgp.ASN{65003, 65002, 65001}; !slices.Equal(best.Attrs.ASPath, want) {
			t.Errorf("AS path = %v, want %v", best.Attrs.ASPath, want)
		}
		if best.Peer != "R3" || !best.EBGP {
			t.Errorf("best route metadata wrong: %+v", best)
		}
		if len(r4.Events()) == 0 || r4.Stats().BestChanges == 0 {
			t.Errorf("best-route changes not recorded")
		}
		if r4.AdjIn("R3").Len() == 0 || r4.AdjOut("R3").Len() == 0 || r4.AdjIn("nobody") != nil || r4.AdjOut("nobody") != nil {
			t.Errorf("Adj-RIB accessors wrong")
		}
	})
}

func TestPoliciesFilterImportAndExport(t *testing.T) {
	block, err := policy.ParsePolicy(`policy BLOCK { if prefix = 10.1.0.0/16 { reject } default accept }`)
	if err != nil {
		t.Fatal(err)
	}
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		// R2 rejects R1's prefix on import from R1; R3 learns it neither.
		net, routers := buildLine(t, d, 3, func(cfg *node.Config) {
			if cfg.Name == "R2" {
				cfg.Policies["BLOCK"] = block
				cfg.Neighbor("R1").Import = "BLOCK"
			}
		})
		net.RunQuiescent(0)
		if routers["R2"].LocRIB().Best(prefixOf(1)) != nil || routers["R2"].Stats().ImportRejected == 0 {
			t.Errorf("import policy did not reject")
		}
		if routers["R1"].LocRIB().Best(prefixOf(2)) == nil {
			t.Errorf("the other direction must still work")
		}
		// R2 accepts it but refuses to export it to R3.
		net, routers = buildLine(t, d, 3, func(cfg *node.Config) {
			if cfg.Name == "R2" {
				cfg.Policies["BLOCK"] = block
				cfg.Neighbor("R3").Export = "BLOCK"
			}
		})
		net.RunQuiescent(0)
		if routers["R3"].LocRIB().Best(prefixOf(1)) != nil || routers["R2"].Stats().ExportRejected == 0 {
			t.Errorf("export policy did not filter")
		}
		if routers["R2"].LocRIB().Best(prefixOf(1)) == nil || routers["R3"].LocRIB().Best(prefixOf(2)) == nil {
			t.Errorf("unfiltered prefixes must still propagate")
		}
	})
}

func TestWithdrawPropagates(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 3)
		net.RunQuiescent(0)
		net.InjectMessage("R1", "R2", bgp.Encode(&bgp.Update{Withdrawn: []bgp.Prefix{prefixOf(1)}}), 0)
		net.RunQuiescent(0)
		if routers["R2"].LocRIB().Best(prefixOf(1)) != nil || routers["R3"].LocRIB().Best(prefixOf(1)) != nil {
			t.Errorf("withdrawal did not propagate")
		}
		if routers["R2"].Stats().WithdrawalsSent == 0 {
			t.Errorf("R2 should have sent a withdrawal")
		}
	})
}

func TestSessionResetWithdrawsRoutes(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 3)
		net.RunQuiescent(0)
		// A NOTIFICATION from R1 resets R2's session and the learned routes
		// must be withdrawn system-wide (the "session reset" emergent
		// behaviour).
		net.InjectMessage("R1", "R2", bgp.Encode(&bgp.Notification{Code: bgp.ErrCease}), 0)
		net.Run(net.Now() + 2*time.Second) // bounded: the retry timer re-opens the session later
		r2 := routers["R2"]
		if r2.SessionState("R1") == speaker.StateEstablished {
			t.Errorf("session should have left Established after NOTIFICATION")
		}
		var rec node.SessionRecord
		for _, s := range r2.Checkpoint().Sessions {
			if s.Peer == "R1" {
				rec = s
			}
		}
		if rec.DownCount == 0 || rec.NotificationsReceived == 0 || r2.Stats().SessionResets == 0 {
			t.Errorf("session counters not updated: %+v", rec)
		}
		if r2.LocRIB().Best(prefixOf(1)) != nil || routers["R3"].LocRIB().Best(prefixOf(1)) != nil {
			t.Errorf("routes learned from the reset session must be withdrawn system-wide")
		}
	})
}

func TestProtocolErrors(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 2)
		net.RunQuiescent(0)
		r2 := routers["R2"]
		unknown := bgp.MustParsePrefix("99.0.0.0/8")

		// An announcement whose AS_PATH already contains R2's AS is ignored.
		net.InjectMessage("R1", "R2", announce(1, "99.0.0.0/8", func(a *bgp.PathAttributes) { a.ASPath = append(a.ASPath, 65002) }), 0)
		net.RunQuiescent(0)
		if r2.LocRIB().Best(unknown) != nil || r2.Stats().ASLoopsIgnored == 0 {
			t.Errorf("looped announcement must be ignored")
		}
		// A message from an unconfigured neighbor is ignored.
		net.InjectMessage("R9", "R2", announce(9, "99.0.0.0/8"), 0)
		net.RunQuiescent(0)
		if r2.LocRIB().Best(unknown) != nil {
			t.Errorf("unconfigured neighbor's route installed")
		}
		// An UPDATE with an invalid ORIGIN draws a NOTIFICATION.
		net.InjectMessage("R1", "R2", announce(1, "99.0.0.0/8", func(a *bgp.PathAttributes) { a.Origin = 7 }), 0)
		net.Run(net.Now() + time.Second)
		if r2.Stats().ParseErrors == 0 || r2.Stats().NotificationsSent == 0 || r2.LocRIB().Best(unknown) != nil {
			t.Errorf("malformed UPDATE not rejected: %+v", r2.Stats())
		}
		// So does an UPDATE outside Established, a bad header and a wrong AS.
		before := r2.Stats().NotificationsSent
		net.InjectMessage("R1", "R2", announce(1, "99.0.0.0/8"), 0)
		net.InjectMessage("R1", "R2", []byte{1, 2, 3}, 0)
		net.InjectMessage("R1", "R2", bgp.Encode(&bgp.Open{Version: bgp.Version, AS: 64999, RouterID: 1}), 0)
		net.Run(net.Now() + 100*time.Millisecond)
		if got := r2.Stats().NotificationsSent - before; got != 3 {
			t.Errorf("NOTIFICATIONs for FSM/header/peer-AS errors = %d, want 3", got)
		}
	})
}

func TestUpdateHookSimulatesCrash(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 2)
		r2 := routers["R2"]
		r2.SetUpdateHook(func(r node.HookContext, from string, u *bgp.Update) error {
			for _, p := range u.NLRI {
				if p.Len == 24 {
					return errors.New("injected bug: /24 announcements crash the handler")
				}
				if p.Len == 25 {
					panic("injected bug: /25 announcements panic")
				}
			}
			return nil
		})
		net.RunQuiescent(0)
		if crashed, _ := r2.Panicked(); crashed {
			t.Fatalf("hook should not fire for /16 announcements")
		}
		net.InjectMessage("R1", "R2", announce(1, "99.0.0.0/24"), 0)
		net.RunQuiescent(0)
		crashed, reason := r2.Panicked()
		if !crashed || !strings.Contains(reason, "injected bug") || r2.Stats().UpdatesHookDropped != 1 {
			t.Errorf("hook crash not recorded: %v %q", crashed, reason)
		}
		if v := r2.CheckInvariants(); len(v) == 0 || r2.Stats().InvariantFailures != len(v) {
			t.Errorf("a crashed handler must show up as an invariant violation")
		}
		net.InjectMessage("R1", "R2", announce(1, "99.0.0.0/25"), 0)
		net.RunQuiescent(0)
		if _, reason := r2.Panicked(); !strings.Contains(reason, "/25") || r2.Stats().HandlerCrashes != 2 {
			t.Errorf("handler panic not contained: %q", reason)
		}
	})
}

func TestKeepalivesWhenEnabled(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 2, func(cfg *node.Config) { cfg.KeepaliveInterval = 500 * time.Millisecond })
		net.Run(3 * time.Second)
		if routers["R1"].Stats().KeepalivesSent < 3 || routers["R1"].SessionState("R2") != speaker.StateEstablished {
			t.Errorf("periodic keepalives not sent: %d", routers["R1"].Stats().KeepalivesSent)
		}
	})
}

func TestExploreNextUpdateRecordsConstraints(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 2)
		net.RunQuiescent(0)
		r2 := routers["R2"]
		wire := announce(1, "99.0.0.0/8", func(a *bgp.PathAttributes) { a.SetMED(17) })
		m := concolic.NewMachine(concolic.NewInput("update", wire[bgp.HeaderLen:]), concolic.MachineOptions{})
		r2.ExploreNextUpdate(m, "R1")
		sawMachine := false
		r2.SetUpdateHook(func(r node.HookContext, from string, u *bgp.Update) error {
			sawMachine = sawMachine || r.ActiveMachine() == m
			return nil
		})
		net.InjectMessage("R1", "R2", wire, 0)
		net.RunQuiescent(0)
		if r2.Stats().ExploredSymbolic != 1 || !sawMachine || r2.ActiveMachine() != nil {
			t.Fatalf("armed UPDATE not explored: %d, hook saw machine %v", r2.Stats().ExploredSymbolic, sawMachine)
		}
		preferred := false
		for _, br := range m.Path() {
			if !br.Cond.EvalBool(m.Assignment()) {
				t.Errorf("recorded branch inconsistent with concrete execution: %s", br.Site)
			}
			preferred = preferred || br.Site == d.Name+"/route.preferred"
		}
		if !preferred {
			t.Errorf("no %s/route.preferred branch among %d recorded", d.Name, len(m.Path()))
		}
		// Only the armed update is symbolic; a second injection is concrete.
		net.InjectMessage("R1", "R2", wire, 0)
		net.RunQuiescent(0)
		if r2.Stats().ExploredSymbolic != 1 {
			t.Errorf("only the armed UPDATE should be explored symbolically")
		}
	})
}

// TestEBGPLocalPrefScrubbedSymbolically pins the instrumentation-fidelity
// rule the live runtime's cold-clone re-verification depends on: when an
// eBGP announcement carries LOCAL_PREF, the router discards it concretely
// AND scrubs the symbolic shadow, so an armed (explored) execution reasons
// about the same effective preference a concrete replay of the identical
// wire message would use. Before the scrub covered route.Sym, exploration
// could select a best route on the strength of a LOCAL_PREF the router
// never honors — a detection no replay could reproduce.
func TestEBGPLocalPrefScrubbedSymbolically(t *testing.T) {
	victim := prefixOf(2) // R2's own prefix; the hijack must NOT win
	// LOCAL_PREF 500 would beat R2's local route if honored.
	wire := announce(1, victim.String(), func(a *bgp.PathAttributes) { a.SetLocalPref(500) })
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		for _, armed := range []bool{false, true} {
			net, routers := buildLine(t, d, 2)
			net.RunQuiescent(0)
			r2 := routers["R2"]
			if armed {
				r2.ExploreNextUpdate(concolic.NewMachine(concolic.NewInput("update", wire[bgp.HeaderLen:]), concolic.MachineOptions{}), "R1")
			}
			net.InjectMessage("R1", "R2", wire, 0)
			net.RunQuiescent(0)
			if best := r2.LocRIB().Best(victim); best == nil || !best.Local {
				t.Fatalf("armed=%v: eBGP LOCAL_PREF hijacked the selection: %v", armed, best)
			}
			for _, cand := range r2.LocRIB().Candidates(victim) {
				if cand.Local {
					continue
				}
				if cand.Attrs.LocalPref != nil {
					t.Errorf("armed=%v: received LOCAL_PREF survived concretely: %v", armed, cand)
				}
				if cand.Sym != nil && cand.Sym.HasLocalPref {
					t.Errorf("armed=%v: symbolic LOCAL_PREF shadow not scrubbed: %v", armed, cand)
				}
			}
		}
	})
}

// convergedCheckpoint converges a 3-line and returns R2's checkpoint: two
// established sessions and learned routes in every RIB.
func convergedCheckpoint(t *testing.T, d *speaker.Dialect) *speaker.Checkpoint {
	t.Helper()
	net, routers := buildLine(t, d, 3)
	net.RunQuiescent(0)
	return routers["R2"].Checkpoint()
}

func TestImageRestoreMatchesColdRestore(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		cp := convergedCheckpoint(t, d)
		cold, err := d.Restore(cp)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		im, err := d.ImageOf(cp)
		if err != nil {
			t.Fatalf("ImageOf: %v", err)
		}
		st, err := d.DecodeState(cp)
		if err != nil {
			t.Fatalf("DecodeState: %v", err)
		}
		if im.Name() != "R2" || im.Implementation() != d.Name {
			t.Errorf("image metadata wrong: %s %s", im.Name(), im.Implementation())
		}
		a, err := im.Restore(st)
		if err != nil {
			t.Fatalf("Image.Restore: %v", err)
		}
		b, err := im.Restore(st)
		if err != nil {
			t.Fatalf("Image.Restore: %v", err)
		}
		want := canonical(t, d, cp)
		if canonical(t, d, a.Checkpoint()) != want || canonical(t, d, cold.Checkpoint()) != want {
			t.Errorf("restores diverged from the checkpoint they were restored from")
		}
		// Routes handed out by a State are deep-copied per restore.
		a.LocRIB().Best(prefixOf(1)).Attrs.SetLocalPref(999)
		if b.LocRIB().Best(prefixOf(1)).Attrs.EffectiveLocalPref() == 999 {
			t.Errorf("clones share route attributes with the decoded state")
		}
	})
}

// TestRestoreFromDialectText is the cross-process path: a checkpoint that
// lost its in-process configuration restores through ParseConfig over the
// dialect text into a byte-identical router.
func TestRestoreFromDialectText(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		cp := convergedCheckpoint(t, d)
		shipped := serialized(t, d, cp)
		if shipped.NodeName() != "R2" || shipped.Implementation() != d.Name {
			t.Fatalf("decoded checkpoint is %s/%s", shipped.NodeName(), shipped.Implementation())
		}
		r, err := d.Restore(shipped)
		if err != nil {
			t.Fatalf("Restore from text: %v", err)
		}
		if canonical(t, d, r.Checkpoint()) != canonical(t, d, cp) {
			t.Errorf("restore through the dialect text differs from the original")
		}
		if r.SessionState("R1") != speaker.StateEstablished || r.LocRIB().Best(prefixOf(3)) == nil {
			t.Errorf("restored router lost state")
		}
		// Malformed payloads and unparsable text error, never panic.
		payload := []byte(canonical(t, d, cp))
		for _, bad := range [][]byte{nil, {0x01}, payload[:len(payload)/2], append(append([]byte(nil), payload...), 0xFF)} {
			if _, err := d.Backend().DecodeCanonical(bad); err == nil {
				t.Errorf("DecodeCanonical accepted malformed payload of %d bytes", len(bad))
			}
		}
		shipped.ConfigText = "policy {{{ neighbor router-map"
		if _, err := d.Restore(shipped); err == nil || !strings.HasPrefix(err.Error(), d.Name+": restore R2: ") {
			t.Errorf("unparsable dialect text: %v", err)
		}
	})
}

// dirty drives every kind of mutable state away from the checkpoint: RIBs,
// counters, events, sessions, crash flags, a fault hook and an armed
// exploration. It returns the hook's call counter.
func dirty(t *testing.T, r *speaker.Router) *int {
	t.Helper()
	calls := new(int)
	r.SetUpdateHook(func(node.HookContext, string, *bgp.Update) error {
		*calls++
		if *calls == 2 {
			return errors.New("boom")
		}
		return nil
	})
	net := netem.New(netem.Options{Seed: 2})
	net.AddNode(r)
	net.InjectMessage("R1", "R2", announce(1, "99.9.0.0/16"), 0)
	net.InjectMessage("R1", "R2", announce(1, "99.9.9.0/24"), 0)
	net.InjectMessage("R3", "R2", bgp.Encode(&bgp.Notification{Code: bgp.ErrCease}), 0)
	net.Run(net.Now() + time.Second)
	r.ExploreNextUpdate(concolic.NewMachine(concolic.NewInput("update", nil), concolic.MachineOptions{}), "R1")
	if p, _ := r.Panicked(); !p || *calls != 2 {
		t.Fatalf("dirtying did not crash the handler (panicked %v, %d hook calls)", p, *calls)
	}
	return calls
}

// TestResetEquivalentToColdRebuild is the golden clone-lifecycle property at
// router level: an in-place ResetTo of a dirtied router is byte-identical to
// a cold restore, clears the fault hook and the armed machine, and stays
// identical under further execution.
func TestResetEquivalentToColdRebuild(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		cp := convergedCheckpoint(t, d)
		im, err := d.ImageOf(cp)
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.DecodeState(cp)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := im.Restore(st)
		if err != nil {
			t.Fatal(err)
		}
		baseline := canonical(t, d, cp)
		calls := dirty(t, pooled)
		if canonical(t, d, pooled.Checkpoint()) == baseline {
			t.Fatal("dirtying the clone did not change its checkpoint; test is vacuous")
		}
		if err := pooled.ResetTo(im, st); err != nil {
			t.Fatalf("ResetTo: %v", err)
		}
		if got := canonical(t, d, pooled.Checkpoint()); got != baseline {
			t.Fatalf("reset clone differs from baseline")
		}
		if p, _ := pooled.Panicked(); p {
			t.Errorf("reset must clear the crash flag")
		}
		cold, err := d.Restore(serialized(t, d, cp))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*speaker.Router{pooled, cold} {
			net := netem.New(netem.Options{Seed: 3})
			net.AddNode(r)
			net.InjectMessage("R1", "R2", announce(1, "88.1.0.0/16"), 0)
			net.InjectMessage("R3", "R2", bgp.Encode(&bgp.Update{Withdrawn: []bgp.Prefix{prefixOf(3)}}), 0)
			net.RunQuiescent(0)
		}
		if canonical(t, d, pooled.Checkpoint()) != canonical(t, d, cold.Checkpoint()) {
			t.Errorf("pooled reset diverged from cold rebuild under execution")
		}
		if *calls != 2 || pooled.Stats().ExploredSymbolic != 0 {
			t.Errorf("reset must clear the fault hook and disarm the exploration (%d calls, %d explored)", *calls, pooled.Stats().ExploredSymbolic)
		}
	})
}

// TestResetRewindsOnlyMovedRouters pins the dirty-set rule at router level: a
// router that has not moved since it was reset onto the very same (image,
// state) keeps its state in place and only drops its hook and armed machine;
// a handled message, a different state pointer or a failed reset each force
// the full rewind.
func TestResetRewindsOnlyMovedRouters(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		net, routers := buildLine(t, d, 3)
		net.RunQuiescent(0)
		cp := routers["R2"].Checkpoint()
		baseline := canonical(t, d, cp)
		im, err := d.ImageOf(cp)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(cp *speaker.Checkpoint) *speaker.State {
			st, err := d.DecodeState(cp)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		st := decode(cp)
		r, err := im.Restore(st)
		if err != nil {
			t.Fatal(err)
		}
		// The best route points into the slab the last rewind stamped out.
		slab := func() *rib.Route { return r.LocRIB().Best(prefixOf(1)) }
		deliver := func() {
			net := netem.New(netem.Options{Seed: 2})
			net.AddNode(r)
			net.InjectMessage("R1", "R2", announce(1, "99.9.0.0/16"), 0)
			net.RunQuiescent(0)
		}

		kept := slab()
		hookCalls := 0
		r.SetUpdateHook(func(node.HookContext, string, *bgp.Update) error { hookCalls++; return nil })
		r.ExploreNextUpdate(concolic.NewMachine(concolic.NewInput("update", nil), concolic.MachineOptions{}), "R1")
		if v := r.CheckInvariants(); len(v) != 0 {
			t.Fatalf("healthy router reports %v", v)
		}
		if err := r.ResetTo(im, st); err != nil {
			t.Fatal(err)
		}
		if slab() != kept {
			t.Errorf("an unmoved router was rewound")
		}
		deliver()
		if hookCalls != 0 || r.Stats().ExploredSymbolic != 0 {
			t.Errorf("a skipped rewind must still drop the hook and the armed machine (%d calls, %d explored)", hookCalls, r.Stats().ExploredSymbolic)
		}

		if err := r.ResetTo(im, st); err != nil {
			t.Fatal(err)
		}
		if slab() == kept || canonical(t, d, r.Checkpoint()) != baseline {
			t.Errorf("a router that handled a message was not rewound")
		}

		kept = slab()
		twin := decode(cp)
		if err := r.ResetTo(im, twin); err != nil {
			t.Fatal(err)
		}
		if slab() == kept {
			t.Errorf("an equal state under a different pointer must rewind: identity is the only evidence of equality")
		}

		// R1's state names a session R2 does not have: the rewind fails half
		// way, and the next one onto the last good pair must not be skipped.
		if err := r.ResetTo(im, decode(routers["R1"].Checkpoint())); err == nil {
			t.Fatal("reset onto another router's state must fail")
		}
		if err := r.ResetTo(im, twin); err != nil {
			t.Fatal(err)
		}
		if canonical(t, d, r.Checkpoint()) != baseline {
			t.Errorf("a failed rewind left the router marked clean")
		}

		// The other two entry points, on a snapshot cut before the start.
		_, unstarted := buildLine(t, d, 3)
		ucp := unstarted["R2"].Checkpoint()
		uim, err := d.ImageOf(ucp)
		if err != nil {
			t.Fatal(err)
		}
		ust := decode(ucp)
		u, err := uim.Restore(ust)
		if err != nil {
			t.Fatal(err)
		}
		for _, move := range []struct {
			name string
			run  func()
		}{
			{"Start", func() { u.Start(loneEnv{}) }},
			{"HandleTimer", func() { u.HandleTimer(loneEnv{}, "retry/R1") }},
		} {
			move.run()
			if canonical(t, d, u.Checkpoint()) == canonical(t, d, ucp) {
				t.Fatalf("%s changed nothing; test is vacuous", move.name)
			}
			if err := u.ResetTo(uim, ust); err != nil {
				t.Fatal(err)
			}
			if canonical(t, d, u.Checkpoint()) != canonical(t, d, ucp) {
				t.Errorf("a router moved by %s was not rewound", move.name)
			}
		}
	})
}

// loneEnv is an emulator view with nobody on the other end: sends and timers
// vanish.
type loneEnv struct{ netem.Env }

func (loneEnv) Now() time.Duration             { return 0 }
func (loneEnv) Send(netem.NodeID, []byte)      {}
func (loneEnv) SetTimer(string, time.Duration) {}

// TestRejectsForeignHalves pins the dialect boundary: a router refuses to
// reset onto, and a backend refuses to decode or restore, another dialect's
// checkpoint halves.
func TestRejectsForeignHalves(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		other := dialects[(slices.Index(dialects, d)+1)%len(dialects)]
		foreign := convergedCheckpoint(t, other)
		fim, err := other.ImageOf(foreign)
		if err != nil {
			t.Fatal(err)
		}
		fst, err := other.DecodeState(foreign)
		if err != nil {
			t.Fatal(err)
		}
		own := convergedCheckpoint(t, d)
		r, err := d.Restore(own)
		if err != nil {
			t.Fatal(err)
		}
		oim, _ := d.ImageOf(own)
		if r.ResetTo(fim, fst) == nil || r.ResetTo(oim, fst) == nil {
			t.Errorf("%s router accepted %s halves", d.Name, other.Name)
		}
		be := d.Backend()
		if _, err := be.ImageOf(foreign); err == nil {
			t.Errorf("%s backend imaged a %s checkpoint", d.Name, other.Name)
		}
		if _, err := be.DecodeState(foreign); err == nil {
			t.Errorf("%s backend decoded a %s checkpoint", d.Name, other.Name)
		}
		if _, err := be.EncodeCanonical(foreign); err == nil {
			t.Errorf("%s backend encoded a %s checkpoint", d.Name, other.Name)
		}
		if _, err := be.Restore(fim, fst); err == nil {
			t.Errorf("%s backend restored %s halves", d.Name, other.Name)
		}
	})
}

// TestInvariantOrderDeterministic is the regression test for the map-order
// bug the shared core removed: with three Idle sessions still holding
// Adj-RIB-Out routes, the violations must come out in configuration order on
// every call.
func TestInvariantOrderDeterministic(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		// A star: R5 in the middle of R1..R4, restored with its sessions
		// forced Idle while the Adj-RIB-Outs keep their routes.
		cfg := &node.Config{Name: "R5", AS: 65005, RouterID: 5, Networks: []bgp.Prefix{prefixOf(5)}}
		for _, i := range []int{3, 1, 4, 2} {
			cfg.Neighbors = append(cfg.Neighbors, node.NeighborConfig{Name: routerName(i), AS: bgp.ASN(65000 + i)})
		}
		hub, err := d.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp := hub.Checkpoint()
		advertised := cp.LocRIB[0]
		cp.AdjOut = node.PeerRouteMap{}
		for i := range cp.Sessions {
			cp.Sessions[i].State = d.StateCodes[speaker.StateIdle]
			advertised.Peer = cp.Sessions[i].Peer
			cp.AdjOut[advertised.Peer] = []node.RouteRecord{advertised}
		}
		r, err := d.Restore(serialized(t, d, cp))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, n := range cfg.Neighbors {
			want = append(want, fmt.Sprintf("Adj-RIB-Out for down session %s is not empty", n.Name))
		}
		for i := 0; i < 32; i++ {
			if got := r.CheckInvariants(); !slices.Equal(got, want) {
				t.Fatalf("call %d: violations\n got %v\nwant %v", i, got, want)
			}
		}
	})
}

// TestSessionStateCodes pins the one numbering quirk: SessionRecord.State
// carries the dialect's code for the FSM state, and a code the dialect does
// not define is rejected on restore.
func TestSessionStateCodes(t *testing.T) {
	forEachDialect(t, func(t *testing.T, d *speaker.Dialect) {
		cp := convergedCheckpoint(t, d)
		for _, s := range cp.Sessions {
			if s.State != d.StateCodes[speaker.StateEstablished] {
				t.Errorf("established session %s recorded as %d, want %d", s.Peer, s.State, d.StateCodes[speaker.StateEstablished])
			}
		}
		cp.Sessions[0].State = 17
		if _, err := d.DecodeState(cp); err == nil {
			t.Errorf("unknown session state code accepted")
		}
		cp.Sessions[0] = node.SessionRecord{Peer: "nobody"}
		if _, err := d.Restore(cp); err == nil {
			t.Errorf("session record for an unconfigured peer accepted")
		}
	})
	for _, s := range []speaker.SessionState{speaker.StateIdle, speaker.StateOpenSent, speaker.StateOpenConfirm, speaker.StateEstablished, 9} {
		if s.String() == "" {
			t.Errorf("empty state name for %d", s)
		}
	}
}
