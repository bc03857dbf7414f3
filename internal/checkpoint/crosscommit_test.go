package checkpoint_test

import (
	"testing"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/topology"
)

// TestCanonicalBytesPinnedAcrossCommits pins canonical bytes across commits,
// not just across processes: the hashes below were captured at the commit
// before the three speakers were folded into internal/speaker, so a refactor
// of the router, its checkpoint or its codec that moves a single payload
// byte of any implementation fails here. live.Runtime seeds campaigns from
// the nodes' content hashes, so a moved byte would silently re-seed every
// soak.
func TestCanonicalBytesPinnedAcrossCommits(t *testing.T) {
	c := cluster.MustBuild(topology.Demo27Hetero3(), cluster.Options{Seed: 1, GaoRexford: true})
	c.Converge()
	snap := c.Snapshot()

	for _, pin := range []struct{ node, impl, want string }{
		{"R1", "bird", "663c982fa65a6073bb4c5244eda0e18856d42da1743cf56746d016a85c9b8e06"},
		{"R4", "obgpd", "1bddce638c6cc497bba88a47c1926a4c60bb866d1987e857eb9f1c62f4d78792"},
		{"R13", "frr", "8a1d34ff45f59c9b74cbbd2faa73ac8fefc07e6b2561997cc424bbbbddde1300"},
	} {
		cp := snap.Nodes[pin.node]
		if cp == nil || cp.Implementation() != pin.impl {
			t.Fatalf("%s is not a %s node: %v", pin.node, pin.impl, cp)
		}
		h, err := checkpoint.HashNode(cp)
		if err != nil {
			t.Fatalf("HashNode(%s): %v", pin.node, err)
		}
		if h.String() != pin.want {
			t.Errorf("%s (%s) canonical bytes moved:\n got %s\nwant %s", pin.node, pin.impl, h, pin.want)
		}
	}
	whole, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	const wantWhole = "d691a4f41386274101068312f61a105f1f2eb727121b1461bbef2b8641bd8835"
	if got := checkpoint.HashBytes(whole).String(); got != wantWhole {
		t.Errorf("whole-snapshot canonical bytes moved:\n got %s\nwant %s", got, wantWhole)
	}
}
