package bird

import (
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/speaker"
)

// TestRoutersConvergeOverTCP runs two emulated routers over real loopback TCP
// connections (the netem TCPRunner) instead of the virtual-time emulator,
// exercising the same Node implementation over a heterogeneous transport —
// sessions must establish and routes must be exchanged using real sockets,
// real framing and real timers.
func TestRoutersConvergeOverTCP(t *testing.T) {
	mk := func(name string, as bgp.ASN, id bgp.RouterID, peer string, peerAS bgp.ASN, prefix string) *Router {
		return MustNew(&Config{
			Name:              name,
			AS:                as,
			RouterID:          id,
			Networks:          []bgp.Prefix{bgp.MustParsePrefix(prefix)},
			KeepaliveInterval: 200 * time.Millisecond,
			ConnectRetry:      300 * time.Millisecond,
			Neighbors:         []NeighborConfig{{Name: peer, AS: peerAS, Import: "ALL", Export: "ALL"}},
			Policies:          map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
		})
	}
	r1 := mk("A", 65001, 1, "B", 65002, "10.1.0.0/16")
	r2 := mk("B", 65002, 2, "A", 65001, "10.2.0.0/16")

	runner := netem.NewTCPRunner()
	runner.AddNode(r1)
	runner.AddNode(r2)
	runner.Connect("A", "B")
	if err := runner.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer runner.Stop()

	// Routers assume the emulator's single-threaded callback semantics, so
	// all state reads go through Inspect, serialized on each node's worker.
	inspect := func(r *Router, fn func()) {
		if !runner.Inspect(r.ID(), fn) {
			t.Fatalf("runner stopped before inspection of %s", r.ID())
		}
	}
	var r1Learned, r2Learned bool
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		inspect(r1, func() { r1Learned = r1.LocRIB().Best(bgp.MustParsePrefix("10.2.0.0/16")) != nil })
		inspect(r2, func() { r2Learned = r2.LocRIB().Best(bgp.MustParsePrefix("10.1.0.0/16")) != nil })
		if r1Learned && r2Learned {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	var s1, s2 speaker.SessionState
	var invariants []string
	inspect(r1, func() {
		s1 = r1.SessionState("B")
		r1Learned = r1.LocRIB().Best(bgp.MustParsePrefix("10.2.0.0/16")) != nil
		invariants = r1.CheckInvariants()
	})
	inspect(r2, func() {
		s2 = r2.SessionState("A")
		r2Learned = r2.LocRIB().Best(bgp.MustParsePrefix("10.1.0.0/16")) != nil
	})
	if s1 != speaker.StateEstablished || s2 != speaker.StateEstablished {
		t.Fatalf("sessions did not establish over TCP: %v / %v", s1, s2)
	}
	if !r1Learned {
		t.Errorf("A did not learn B's prefix over TCP")
	}
	if !r2Learned {
		t.Errorf("B did not learn A's prefix over TCP")
	}
	if len(invariants) != 0 {
		t.Errorf("invariant violations over TCP transport: %v", invariants)
	}
}
