package node_test

import (
	"strings"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bird"
	"github.com/dice-project/dice/internal/frr"
	"github.com/dice-project/dice/internal/node"
)

func testConfig(name string) *node.Config {
	return &node.Config{
		Name: name, AS: 65001, RouterID: 1,
		Networks: []bgp.Prefix{bgp.MustParsePrefix("10.1.0.0/16")},
	}
}

func TestRegistryResolvesBackends(t *testing.T) {
	impls := node.Implementations()
	want := map[string]bool{"bird": false, "frr": false}
	for _, impl := range impls {
		if _, ok := want[impl]; ok {
			want[impl] = true
		}
	}
	for impl, seen := range want {
		if !seen {
			t.Errorf("backend %q not registered (got %v)", impl, impls)
		}
	}

	def, err := node.BackendFor("")
	if err != nil || def.Name != node.DefaultImplementation {
		t.Errorf("empty tag resolves to %q (%v), want default %q", def.Name, err, node.DefaultImplementation)
	}
	if _, err := node.BackendFor("cisco-ios"); err == nil || !strings.Contains(err.Error(), "unknown router implementation") {
		t.Errorf("unknown implementation error = %v", err)
	}
}

func TestBuildRouterDispatches(t *testing.T) {
	for _, impl := range []string{"bird", "frr"} {
		r, err := node.BuildRouter(impl, testConfig("R1"))
		if err != nil {
			t.Fatalf("BuildRouter(%s): %v", impl, err)
		}
		if r.Implementation() != impl {
			t.Errorf("built router reports %q, want %q", r.Implementation(), impl)
		}
		if r.Config().Name != "R1" || r.LocRIB().Len() != 1 {
			t.Errorf("%s router not configured: %+v", impl, r.Config())
		}
	}
	if _, err := node.BuildRouter("nope", testConfig("R1")); err == nil {
		t.Errorf("unknown backend must not build")
	}
}

func TestRestoreRouterDispatchesByCheckpoint(t *testing.T) {
	br := bird.MustNew(testConfig("B"))
	fr, err := frr.New(testConfig("F"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []node.Checkpoint{br.TakeCheckpoint(), fr.TakeCheckpoint()} {
		restored, err := node.RestoreRouter(cp)
		if err != nil {
			t.Fatalf("RestoreRouter(%s): %v", cp.Implementation(), err)
		}
		if restored.Implementation() != cp.Implementation() {
			t.Errorf("restored %q from a %q checkpoint", restored.Implementation(), cp.Implementation())
		}
		if restored.Config().Name != cp.NodeName() {
			t.Errorf("restored name %q, want %q", restored.Config().Name, cp.NodeName())
		}
	}
}

// TestBackendsRejectForeignCheckpoints pins the registry boundary: a
// backend's decode hooks refuse a checkpoint produced by the other backend.
func TestBackendsRejectForeignCheckpoints(t *testing.T) {
	birdBE, _ := node.BackendFor("bird")
	frrBE, _ := node.BackendFor("frr")
	fr, err := frr.New(testConfig("F"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := birdBE.ImageOf(fr.TakeCheckpoint()); err == nil {
		t.Errorf("bird backend accepted an frr checkpoint")
	}
	br := bird.MustNew(testConfig("B"))
	if _, err := frrBE.DecodeState(br.TakeCheckpoint()); err == nil {
		t.Errorf("frr backend accepted a bird checkpoint")
	}
}

func TestRegisterRejectsIncompleteAndDuplicate(t *testing.T) {
	// A scoped registry exercises the panic paths without touching the
	// process-wide default registry.
	reg := node.NewRegistry()
	mustPanic := func(name string, b node.Backend) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		reg.Register(b)
	}
	mustPanic("incomplete", node.Backend{Name: "half-baked"})
	full, _ := node.BackendFor("bird")
	// A backend without both halves of its canonical codec would need a
	// second serialization format; it is as incomplete as one that cannot
	// build a router.
	noEncode, noDecode := full, full
	noEncode.Name, noEncode.EncodeCanonical = "no-encode", nil
	noDecode.Name, noDecode.DecodeCanonical = "no-decode", nil
	mustPanic("complete but for EncodeCanonical", noEncode)
	mustPanic("complete but for DecodeCanonical", noDecode)
	reg.Register(full)
	mustPanic("duplicate", full)
}

// TestScopedRegistryIsolation pins the test seam: registrations in a scoped
// Registry are invisible to the default registry and vice versa, and each
// scoped registry dispatches builds through its own backend set.
func TestScopedRegistryIsolation(t *testing.T) {
	reg := node.NewRegistry()
	if impls := reg.Implementations(); len(impls) != 0 {
		t.Fatalf("fresh registry not empty: %v", impls)
	}
	if _, err := reg.BackendFor("bird"); err == nil {
		t.Fatal("scoped registry must not see the default registry's backends")
	}

	full, _ := node.BackendFor("bird")
	fake := full
	fake.Name = "fake-speaker"
	reg.Register(fake)
	if got := reg.Implementations(); len(got) != 1 || got[0] != "fake-speaker" {
		t.Fatalf("scoped registry contents: %v", got)
	}
	if _, err := node.BackendFor("fake-speaker"); err == nil {
		t.Fatal("scoped registration leaked into the default registry")
	}

	r, err := reg.BuildRouter("fake-speaker", testConfig("R1"))
	if err != nil {
		t.Fatalf("scoped BuildRouter: %v", err)
	}
	// The builder is bird's, so the checkpoint carries the "bird" tag — and
	// restore dispatches through the scoped set, where that tag is unknown.
	if _, err := reg.RestoreRouter(r.TakeCheckpoint()); err == nil {
		t.Fatal("scoped RestoreRouter resolved a tag only the default registry knows")
	}
}
