package checker_test

import (
	"bytes"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/federation"
)

// TestSummaryKeyCrossProcessParity: encoding a summary, shipping it across a
// process boundary and decoding it must not change its key, or campaign-wide
// dedupe would double-count detections that arrived over the
// distributed-execution wire. The boundary here is the real one — a
// ShardResult frame on the control wire, the only way a summary leaves an
// agent — which is why this test lives outside the package (control imports
// checker).
func TestSummaryKeyCrossProcessParity(t *testing.T) {
	p1 := bgp.MustParsePrefix("10.0.1.0/24")
	p2 := bgp.MustParsePrefix("10.0.2.0/24")
	s := checker.Summary{
		Domain:  "as7",
		Checked: 12,
		Digests: []checker.ViolationDigest{
			{Property: "origin-validity", Class: checker.ClassOperatorMistake, Node: "R3", Prefix: p1, HasPfx: true},
			{Property: "reachability", Class: checker.ClassPolicyConflict, Node: "R1", Prefix: p2, HasPfx: true},
		},
		Edges: []checker.ForwardingEdge{
			{Node: "R3", Prefix: p1, NextHop: "R1"},
			{Node: "R1", Prefix: p2, NextHop: ""},
		},
	}
	var wire bytes.Buffer
	sent := &control.ShardResult{AgentID: "agent-1", Envelopes: []federation.Envelope{{From: "as7", To: "as1", Summary: s, Bytes: s.Size()}}}
	if _, err := control.EncodeFrame(&wire, sent); err != nil {
		t.Fatalf("encode: %v", err)
	}
	msg, err := control.DecodeFrame(&wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := msg.(*control.ShardResult).Envelopes[0].Summary
	if got.Key() != s.Key() {
		t.Fatalf("key changed across encode/decode:\n before %q\n after  %q", s.Key(), got.Key())
	}
}
