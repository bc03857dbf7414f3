package bird

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
)

// buildLine builds a line topology R1-R2-...-Rn of routers with accept-all
// policies, each originating 10.i.0.0/16, and returns the network plus the
// routers by name. Each tweak edits the configurations before the routers are
// built.
func buildLine(t *testing.T, n int, tweaks ...func(cfg *Config)) (*netem.Network, map[string]*Router) {
	t.Helper()
	net := netem.New(netem.Options{Seed: 1})
	routers := make(map[string]*Router)
	name := func(i int) string { return "R" + string(rune('0'+i)) }
	for i := 1; i <= n; i++ {
		cfg := &Config{
			Name:     name(i),
			AS:       bgp.ASN(65000 + i),
			RouterID: bgp.RouterID(i),
			Networks: []bgp.Prefix{{Addr: uint32(10)<<24 | uint32(i)<<16, Len: 16}},
			Policies: map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
		}
		if i > 1 {
			cfg.Neighbors = append(cfg.Neighbors, NeighborConfig{Name: name(i - 1), AS: bgp.ASN(65000 + i - 1), Import: "ALL", Export: "ALL"})
		}
		if i < n {
			cfg.Neighbors = append(cfg.Neighbors, NeighborConfig{Name: name(i + 1), AS: bgp.ASN(65000 + i + 1), Import: "ALL", Export: "ALL"})
		}
		for _, tweak := range tweaks {
			tweak(cfg)
		}
		r := MustNew(cfg)
		routers[cfg.Name] = r
		net.AddNode(r)
	}
	for i := 1; i < n; i++ {
		net.Connect(netem.NodeID(name(i)), netem.NodeID(name(i+1)), netem.LinkConfig{Delay: 5 * time.Millisecond})
	}
	return net, routers
}

// serialized passes a checkpoint through its canonical encoding, as crossing
// a process boundary does: the result has lost its in-process configuration
// and restores from the dialect text.
func serialized(t testing.TB, cp *Checkpoint) *Checkpoint {
	t.Helper()
	be := Dialect.Backend()
	payload, err := be.EncodeCanonical(cp)
	if err != nil {
		t.Fatalf("EncodeCanonical: %v", err)
	}
	out, err := be.DecodeCanonical(payload)
	if err != nil {
		t.Fatalf("DecodeCanonical: %v", err)
	}
	return out.(*Checkpoint)
}

func prefixOf(i int) bgp.Prefix {
	return bgp.Prefix{Addr: uint32(10)<<24 | uint32(i)<<16, Len: 16}
}

func TestTwoRoutersConverge(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)

	r1, r2 := routers["R1"], routers["R2"]
	if r1.SessionState("R2") != speaker.StateEstablished || r2.SessionState("R1") != speaker.StateEstablished {
		t.Fatalf("sessions not established: %v / %v", r1.SessionState("R2"), r2.SessionState("R1"))
	}
	if r1.LocRIB().Best(prefixOf(2)) == nil {
		t.Errorf("R1 did not learn R2's prefix")
	}
	best := r2.LocRIB().Best(prefixOf(1))
	if best == nil {
		t.Fatalf("R2 did not learn R1's prefix")
	}
	if len(best.Attrs.ASPath) != 1 || best.Attrs.ASPath[0] != 65001 {
		t.Errorf("AS path = %v, want [65001]", best.Attrs.ASPath)
	}
	if best.Peer != "R1" || !best.EBGP {
		t.Errorf("best route metadata wrong: %+v", best)
	}
}

func TestLinePropagationASPath(t *testing.T) {
	net, routers := buildLine(t, 4)
	net.RunQuiescent(0)
	r4 := routers["R4"]
	best := r4.LocRIB().Best(prefixOf(1))
	if best == nil {
		t.Fatalf("R4 did not learn R1's prefix across the line")
	}
	want := []bgp.ASN{65003, 65002, 65001}
	if len(best.Attrs.ASPath) != len(want) {
		t.Fatalf("AS path = %v, want %v", best.Attrs.ASPath, want)
	}
	for i := range want {
		if best.Attrs.ASPath[i] != want[i] {
			t.Fatalf("AS path = %v, want %v", best.Attrs.ASPath, want)
		}
	}
	// Every router knows every prefix.
	for name, r := range routers {
		for i := 1; i <= 4; i++ {
			if r.LocRIB().Best(prefixOf(i)) == nil {
				t.Errorf("%s missing prefix %s", name, prefixOf(i))
			}
		}
	}
}

func TestImportPolicyRejects(t *testing.T) {
	// R2 rejects R1's prefix on import.
	pol, err := policy.ParsePolicy(`policy BLOCK { if prefix = 10.1.0.0/16 { reject } default accept }`)
	if err != nil {
		t.Fatal(err)
	}
	net, routers := buildLine(t, 2, func(cfg *Config) {
		if cfg.Name == "R2" {
			cfg.Policies["BLOCK"] = pol
			cfg.Neighbors[0].Import = "BLOCK"
		}
	})
	r2 := routers["R2"]

	net.RunQuiescent(0)
	if r2.LocRIB().Best(prefixOf(1)) != nil {
		t.Errorf("rejected prefix must not enter the Loc-RIB")
	}
	if r2.Stats().ImportRejected == 0 {
		t.Errorf("ImportRejected counter not incremented")
	}
	// The other direction still works.
	if routers["R1"].LocRIB().Best(prefixOf(2)) == nil {
		t.Errorf("R1 should still learn R2's prefix")
	}
}

func TestExportPolicyFilters(t *testing.T) {
	// R2 refuses to export R1's prefix to R3.
	pol, err := policy.ParsePolicy(`policy NOEXPORT { if prefix = 10.1.0.0/16 { reject } default accept }`)
	if err != nil {
		t.Fatal(err)
	}
	net, routers := buildLine(t, 3, func(cfg *Config) {
		if cfg.Name == "R2" {
			cfg.Policies["NOEXPORT"] = pol
			cfg.Neighbor("R3").Export = "NOEXPORT"
		}
	})
	r2 := routers["R2"]

	net.RunQuiescent(0)
	if routers["R3"].LocRIB().Best(prefixOf(1)) != nil {
		t.Errorf("export-filtered prefix must not reach R3")
	}
	if routers["R3"].LocRIB().Best(prefixOf(2)) == nil {
		t.Errorf("unfiltered prefix should reach R3")
	}
	if r2.Stats().ExportRejected == 0 {
		t.Errorf("ExportRejected counter not incremented")
	}
}

func TestWithdrawPropagates(t *testing.T) {
	net, routers := buildLine(t, 3)
	net.RunQuiescent(0)
	if routers["R3"].LocRIB().Best(prefixOf(1)) == nil {
		t.Fatalf("precondition: R3 knows R1's prefix")
	}
	// R1 withdraws its prefix: inject the withdrawal toward R2 as if R1 sent it.
	withdraw := &bgp.Update{Withdrawn: []bgp.Prefix{prefixOf(1)}}
	net.InjectMessage("R1", "R2", bgp.Encode(withdraw), 0)
	net.RunQuiescent(0)

	if routers["R2"].LocRIB().Best(prefixOf(1)) != nil {
		t.Errorf("R2 should have removed the withdrawn prefix")
	}
	if routers["R3"].LocRIB().Best(prefixOf(1)) != nil {
		t.Errorf("withdrawal should propagate to R3")
	}
	if routers["R2"].Stats().WithdrawalsSent == 0 {
		t.Errorf("R2 should have sent a withdrawal")
	}
}

func TestSessionResetWithdrawsRoutes(t *testing.T) {
	net, routers := buildLine(t, 3)
	net.RunQuiescent(0)
	// A NOTIFICATION from R1 resets R2's session and the learned routes must
	// be withdrawn system-wide (the "session reset" emergent behaviour).
	notif := &bgp.Notification{Code: bgp.ErrCease}
	net.InjectMessage("R1", "R2", bgp.Encode(notif), 0)
	net.Run(net.Now() + 2*time.Second) // bounded: the retry timer re-opens the session later

	r2 := routers["R2"]
	if r2.SessionState("R1") == speaker.StateEstablished {
		t.Errorf("session should have left Established after NOTIFICATION")
	}
	found := false
	for _, s := range r2.Checkpoint().Sessions {
		if s.Peer == "R1" && s.DownCount > 0 && s.NotificationsReceived > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("session counters not updated: %+v", r2.Checkpoint().Sessions)
	}
	if r2.LocRIB().Best(prefixOf(1)) != nil {
		t.Errorf("routes learned from the reset session must be withdrawn")
	}
}

func TestMalformedUpdateTriggersNotification(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)
	// Build an UPDATE with an invalid ORIGIN value.
	attrs := &bgp.PathAttributes{Origin: 7, ASPath: []bgp.ASN{65001}, NextHop: 1}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.0.0.0/8")}}
	net.InjectMessage("R1", "R2", bgp.Encode(u), 0)
	net.Run(net.Now() + time.Second)

	r2 := routers["R2"]
	if r2.Stats().ParseErrors == 0 {
		t.Errorf("malformed UPDATE should count as a parse error")
	}
	if r2.Stats().NotificationsSent == 0 {
		t.Errorf("router should notify the peer about the malformed UPDATE")
	}
	if r2.LocRIB().Best(bgp.MustParsePrefix("99.0.0.0/8")) != nil {
		t.Errorf("malformed UPDATE must not install a route")
	}
}

func TestASLoopIgnored(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)
	// An announcement whose AS_PATH already contains R2's AS must be ignored.
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001, 65002}, NextHop: 1}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.0.0.0/8")}}
	net.InjectMessage("R1", "R2", bgp.Encode(u), 0)
	net.RunQuiescent(0)
	if routers["R2"].LocRIB().Best(bgp.MustParsePrefix("99.0.0.0/8")) != nil {
		t.Errorf("looped announcement must be ignored")
	}
	if routers["R2"].Stats().ASLoopsIgnored == 0 {
		t.Errorf("ASLoopsIgnored counter not incremented")
	}
}

func TestBestRouteEventsRecorded(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)
	if len(routers["R2"].Events()) == 0 {
		t.Errorf("best-route changes should be recorded as events")
	}
	if routers["R2"].Stats().BestChanges == 0 {
		t.Errorf("BestChanges counter not incremented")
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	net, routers := buildLine(t, 3)
	net.RunQuiescent(0)
	r2 := routers["R2"]

	cp := r2.Checkpoint()
	restored, err := Dialect.Restore(cp)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Same prefixes, same bests, same session states, same counters.
	origPrefixes := r2.LocRIB().Prefixes()
	newPrefixes := restored.LocRIB().Prefixes()
	if len(origPrefixes) != len(newPrefixes) {
		t.Fatalf("prefix count differs: %d vs %d", len(origPrefixes), len(newPrefixes))
	}
	for i, p := range origPrefixes {
		if newPrefixes[i] != p {
			t.Fatalf("prefix %d differs: %s vs %s", i, p, newPrefixes[i])
		}
		ob, nb := r2.LocRIB().Best(p), restored.LocRIB().Best(p)
		if (ob == nil) != (nb == nil) {
			t.Fatalf("best for %s differs in presence", p)
		}
		if ob != nil && (ob.Peer != nb.Peer || ob.Attrs.PathLen() != nb.Attrs.PathLen()) {
			t.Errorf("best for %s differs: %v vs %v", p, ob, nb)
		}
	}
	if restored.SessionState("R1") != r2.SessionState("R1") {
		t.Errorf("session state not restored")
	}
	if restored.Stats().UpdatesReceived != r2.Stats().UpdatesReceived {
		t.Errorf("stats not restored")
	}
	if len(restored.Events()) != len(r2.Events()) {
		t.Errorf("events not restored")
	}
}

func TestCheckpointRestoreFromTextOnly(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)
	cp := serialized(t, routers["R2"].Checkpoint())
	restored, err := Dialect.Restore(cp)
	if err != nil {
		t.Fatalf("Restore from text: %v", err)
	}
	if restored.LocRIB().Best(prefixOf(1)) == nil {
		t.Errorf("restored router lost its RIB")
	}
}

func TestCloneIsolation(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)
	r2 := routers["R2"]
	clone, err := Dialect.Restore(r2.Checkpoint())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Drive the clone with an extra announcement on an isolated network; the
	// original must not observe it.
	cloneNet := netem.New(netem.Options{Seed: 9})
	cloneNet.AddNode(clone)
	stub := MustNew(&Config{Name: "R1", AS: 65001, RouterID: 99,
		Policies: map[string]*policy.Policy{}})
	_ = stub
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001}, NextHop: 1}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.0.0.0/8")}}
	cloneNet.InjectMessage("R1", "R2", bgp.Encode(u), 0)
	cloneNet.RunQuiescent(0)

	if clone.LocRIB().Best(bgp.MustParsePrefix("99.0.0.0/8")) == nil {
		t.Fatalf("clone should process the injected update")
	}
	if r2.LocRIB().Best(bgp.MustParsePrefix("99.0.0.0/8")) != nil {
		t.Errorf("exploration on the clone leaked into the original router")
	}
}

func TestExploreNextUpdateRecordsConstraints(t *testing.T) {
	net, routers := buildLine(t, 2)
	net.RunQuiescent(0)
	r2 := routers["R2"]

	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001}, NextHop: 1}
	attrs.SetMED(17)
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.0.0.0/8")}}
	body := u.EncodeBody()

	in := concolic.NewInput("update", body)
	m := concolic.NewMachine(in, concolic.MachineOptions{})
	r2.ExploreNextUpdate(m, "R1")

	net.InjectMessage("R1", "R2", bgp.Encode(u), 0)
	net.RunQuiescent(0)

	if r2.Stats().ExploredSymbolic != 1 {
		t.Fatalf("ExploredSymbolic = %d, want 1", r2.Stats().ExploredSymbolic)
	}
	if len(m.Path()) == 0 {
		t.Fatalf("symbolic execution recorded no branches")
	}
	for _, br := range m.Path() {
		if !br.Cond.EvalBool(m.Assignment()) {
			t.Errorf("recorded branch inconsistent with concrete execution: %s", br.Site)
		}
	}
	// Only the armed update is symbolic; a second injection is concrete.
	net.InjectMessage("R1", "R2", bgp.Encode(u), 0)
	net.RunQuiescent(0)
	if r2.Stats().ExploredSymbolic != 1 {
		t.Errorf("only the armed UPDATE should be explored symbolically")
	}
}

func TestUpdateHookSimulatesCrash(t *testing.T) {
	net, routers := buildLine(t, 2)
	r2 := routers["R2"]
	r2.SetUpdateHook(func(r node.HookContext, from string, u *bgp.Update) error {
		for _, p := range u.NLRI {
			if p.Len == 24 {
				return errors.New("injected bug: /24 announcements crash the handler")
			}
		}
		return nil
	})
	net.RunQuiescent(0)
	if crashed, _ := r2.Panicked(); crashed {
		t.Fatalf("hook should not fire for /16 announcements")
	}
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001}, NextHop: 1}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.0.0.0/24")}}
	net.InjectMessage("R1", "R2", bgp.Encode(u), 0)
	net.RunQuiescent(0)
	crashed, reason := r2.Panicked()
	if !crashed || !strings.Contains(reason, "injected bug") {
		t.Errorf("hook crash not recorded: %v %q", crashed, reason)
	}
	if r2.Stats().HandlerCrashes == 0 {
		t.Errorf("HandlerCrashes counter not incremented")
	}
	if len(r2.CheckInvariants()) == 0 {
		t.Errorf("a crashed handler must show up as an invariant violation")
	}
}

func TestInvariantsCleanAfterConvergence(t *testing.T) {
	net, routers := buildLine(t, 3)
	net.RunQuiescent(0)
	for name, r := range routers {
		if v := r.CheckInvariants(); len(v) != 0 {
			t.Errorf("%s invariant violations after clean convergence: %v", name, v)
		}
	}
}

func TestKeepalivesWhenEnabled(t *testing.T) {
	net := netem.New(netem.Options{Seed: 1})
	mk := func(name string, as bgp.ASN, id bgp.RouterID, peer string, peerAS bgp.ASN) *Router {
		return MustNew(&Config{
			Name: name, AS: as, RouterID: id,
			KeepaliveInterval: 500 * time.Millisecond,
			Neighbors:         []NeighborConfig{{Name: peer, AS: peerAS}},
			Policies:          map[string]*policy.Policy{},
		})
	}
	r1 := mk("A", 65001, 1, "B", 65002)
	r2 := mk("B", 65002, 2, "A", 65001)
	net.AddNode(r1)
	net.AddNode(r2)
	net.Connect("A", "B", netem.LinkConfig{Delay: time.Millisecond})
	net.Run(3 * time.Second)
	if r1.Stats().KeepalivesSent < 3 {
		t.Errorf("periodic keepalives not sent: %d", r1.Stats().KeepalivesSent)
	}
	if r1.SessionState("B") != speaker.StateEstablished {
		t.Errorf("session should be established")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []*Config{
		{Name: "", AS: 1, RouterID: 1},
		{Name: "A", AS: 0, RouterID: 1},
		{Name: "A", AS: 1, RouterID: 0},
		{Name: "A", AS: 1, RouterID: 1, Neighbors: []NeighborConfig{{Name: "B", AS: 2, Import: "missing"}}},
		{Name: "A", AS: 1, RouterID: 1, Neighbors: []NeighborConfig{{Name: "B", AS: 2}, {Name: "B", AS: 3}}},
		{Name: "A", AS: 1, RouterID: 1, Neighbors: []NeighborConfig{{Name: "", AS: 2}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	good := &Config{Name: "A", AS: 1, RouterID: 1,
		Networks:  []bgp.Prefix{bgp.MustParsePrefix("10.0.0.0/8")},
		Neighbors: []NeighborConfig{{Name: "B", AS: 2}},
		Policies:  map[string]*policy.Policy{}}
	r, err := New(good)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if r.Config().Neighbor("B") == nil || r.Config().Neighbor("Z") != nil {
		t.Errorf("Neighbor lookup broken")
	}
	if r.LocRIB().Len() != 1 {
		t.Errorf("local network not originated")
	}
}

func TestSessionStateString(t *testing.T) {
	for _, s := range []speaker.SessionState{speaker.StateIdle, speaker.StateOpenSent, speaker.StateOpenConfirm, speaker.StateEstablished} {
		if s.String() == "" {
			t.Errorf("empty state name for %d", s)
		}
	}
}
