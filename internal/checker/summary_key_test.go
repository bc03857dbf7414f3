package checker

import (
	"fmt"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/topology"
)

func testSummary() Summary {
	p1 := bgp.MustParsePrefix("10.0.1.0/24")
	p2 := bgp.MustParsePrefix("10.0.2.0/24")
	return Summary{
		Domain:  "as7",
		Checked: 12,
		OK:      false,
		Digests: []ViolationDigest{
			{Property: "origin-validity", Class: ClassOperatorMistake, Node: "R3", Prefix: p1, HasPfx: true},
			{Property: "reachability", Class: ClassPolicyConflict, Node: "R1", Prefix: p2, HasPfx: true},
		},
		Edges: []ForwardingEdge{
			{Node: "R3", Prefix: p1, NextHop: "R1"},
			{Node: "R1", Prefix: p2, NextHop: ""},
		},
	}
}

// TestSummaryKeyOrderIndependent proves the key has no slice-order (and hence
// no map-iteration-order) dependence: the same content appended in a
// different order keys identically, while different content does not.
func TestSummaryKeyOrderIndependent(t *testing.T) {
	a := testSummary()
	b := testSummary()
	b.Digests[0], b.Digests[1] = b.Digests[1], b.Digests[0]
	b.Edges[0], b.Edges[1] = b.Edges[1], b.Edges[0]
	if a.Key() != b.Key() {
		t.Fatalf("reordered content changed the key:\n a %q\n b %q", a.Key(), b.Key())
	}
	c := testSummary()
	c.Digests[0].Node = "R9"
	if a.Key() == c.Key() {
		t.Fatalf("different content produced the same key %q", a.Key())
	}
	d := testSummary()
	d.Domain = "as8"
	if a.Key() == d.Key() {
		t.Fatalf("different domain produced the same key %q", a.Key())
	}
}

func TestDigestOfMatchesSummarize(t *testing.T) {
	v := Violation{
		Property: "origin-validity",
		Class:    ClassOperatorMistake,
		Node:     "R3",
		Prefix:   bgp.MustParsePrefix("10.0.1.0/24"),
		HasPfx:   true,
		Detail:   "local evidence that must not cross",
	}
	d := DigestOf(v)
	if d.Key() != v.Key() {
		t.Fatalf("digest key %q != violation key %q", d.Key(), v.Key())
	}
	if got := d.ViolationVia("remote agent summary"); got.Key() != v.Key() {
		t.Fatalf("reconstructed key %q != original %q", got.Key(), v.Key())
	} else if got.Detail == v.Detail {
		t.Fatalf("local detail leaked through the digest")
	}
}

func TestPropertiesByName(t *testing.T) {
	topo := topology.Line(3)
	defaults := DefaultProperties(topo)
	names := make([]string, len(defaults))
	for i, p := range defaults {
		names[i] = p.Name()
	}
	rebuilt, err := PropertiesByName(topo, names...)
	if err != nil {
		t.Fatalf("PropertiesByName: %v", err)
	}
	if len(rebuilt) != len(defaults) {
		t.Fatalf("got %d properties, want %d", len(rebuilt), len(defaults))
	}
	for i := range rebuilt {
		if rebuilt[i].Name() != defaults[i].Name() {
			t.Fatalf("property %d: got %s want %s", i, rebuilt[i].Name(), defaults[i].Name())
		}
	}
	if _, err := PropertiesByName(topo, "no-such-property"); err == nil {
		t.Fatalf("unknown property name accepted")
	}
}

// TestViolationKeyRendering pins the bytes of Violation.Key: detections dedupe
// on it, ViolationDigest.Key and the control wire carry it, and the benchmark
// goldens hash it — it must render exactly what
// fmt.Sprintf("%s|%s|%s|%v", Property, Node, Prefix, HasPfx) did.
func TestViolationKeyRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Violation
		want string
	}{
		{Violation{Property: "origin-validity", Node: "R3", Prefix: bgp.MustParsePrefix("10.0.1.0/24"), HasPfx: true}, "origin-validity|R3|10.0.1.0/24|true"},
		{Violation{Property: "node-health", Node: "R12", Detail: "handler crashed"}, "node-health|R12|0.0.0.0/0|false"},
		{Violation{Property: "reachability", Node: "R1", Prefix: bgp.Prefix{}, HasPfx: true}, "reachability|R1|0.0.0.0/0|true"},
		{Violation{Property: "loop-freedom", Node: "R7", Prefix: bgp.MustParsePrefix("192.168.255.1/32"), HasPfx: true}, "loop-freedom|R7|192.168.255.1/32|true"},
		{Violation{Property: "convergence", Prefix: bgp.MustParsePrefix("255.255.255.255/32"), HasPfx: true}, "convergence||255.255.255.255/32|true"},
		{Violation{Property: "cross-impl-divergence", Node: "R2", Prefix: bgp.Prefix{Addr: 0x0a000100, Len: 200}, HasPfx: true}, "cross-impl-divergence|R2|10.0.1.0/200|true"},
		{Violation{}, "||0.0.0.0/0|false"},
	} {
		if got := tc.v.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
		if legacy := fmt.Sprintf("%s|%s|%s|%v", tc.v.Property, tc.v.Node, tc.v.Prefix, tc.v.HasPfx); legacy != tc.want {
			t.Errorf("the pinned key %q is not what the fmt rendering gives (%q)", tc.want, legacy)
		}
		if got := DigestOf(tc.v).Key(); got != tc.want {
			t.Errorf("ViolationDigest.Key() = %q, want %q", got, tc.want)
		}
	}
}
