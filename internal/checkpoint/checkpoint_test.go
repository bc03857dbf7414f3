package checkpoint

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bird"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

func sampleSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	mk := func(name string, as bgp.ASN, id bgp.RouterID) *bird.Checkpoint {
		r := bird.MustNew(&bird.Config{
			Name: name, AS: as, RouterID: id,
			Networks: []bgp.Prefix{bgp.MustParsePrefix("10.1.0.0/16")},
			Policies: map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
			Neighbors: []bird.NeighborConfig{
				{Name: "peer", AS: 65099, Import: "ALL", Export: "ALL"},
			},
		})
		return r.Checkpoint()
	}
	return &Snapshot{
		At: 3 * time.Second,
		Nodes: map[string]node.Checkpoint{
			"A": mk("A", 65001, 1),
			"B": mk("B", 65002, 2),
		},
		InFlight: []netem.QueuedMessage{
			{From: "A", To: "B", Payload: []byte{1, 2, 3}, Deliver: 3100 * time.Millisecond},
		},
		Consistent: true,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.At != s.At || !got.Consistent {
		t.Errorf("metadata lost: %+v", got)
	}
	if len(got.Nodes) != 2 || got.Nodes["A"] == nil || got.Nodes["A"].NodeName() != "A" {
		t.Errorf("nodes lost: %+v", got.NodeNames())
	}
	if impl := got.Nodes["A"].Implementation(); impl != "bird" {
		t.Errorf("decoded checkpoint implementation = %q, want bird", impl)
	}
	if len(got.InFlight) != 1 || string(got.InFlight[0].Payload) != string([]byte{1, 2, 3}) {
		t.Errorf("in-flight messages lost: %+v", got.InFlight)
	}
	// A decoded checkpoint (which lost its in-process config) must still
	// restore via its textual policy form, dispatched through the backend
	// registry.
	if _, err := node.RestoreRouter(got.Nodes["A"]); err != nil {
		t.Errorf("decoded node checkpoint does not restore: %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a snapshot")); err == nil {
		t.Errorf("garbage must not decode")
	}
}

// legacyGobSnapshot returns a snapshot artifact written by the last release
// that still had a gob encoder — the fuzz corpus's hand-kept legacy-gob seed.
func legacyGobSnapshot(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointCodecDecode", "legacy-gob"))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[1], "[]byte("), ")\n")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("legacy-gob seed does not parse: %v", err)
	}
	return []byte(data)
}

// TestDecodeLegacyGob pins that there is no second format: an artifact
// written by the pre-codec gob encoder is refused at the header by every
// decode surface, not handed to another decoder.
func TestDecodeLegacyGob(t *testing.T) {
	data := legacyGobSnapshot(t)
	if codec.IsEncoded(data) {
		t.Fatalf("gob encoding unexpectedly carries the codec magic")
	}
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("Decode(legacy gob) = %v, want a bad-magic error", err)
	}
	for _, impl := range []string{"", "bird"} {
		if _, err := DecodeNode(impl, data); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("DecodeNode(%q, legacy gob) = %v, want a bad-magic error", impl, err)
		}
	}
}

// TestEncodeNodeRoundTrip pins the canonical single-node form: decodable with
// the matching tag, with no tag (in-band), and rejected with a wrong tag.
func TestEncodeNodeRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	enc, err := EncodeNode(s.Nodes["A"])
	if err != nil {
		t.Fatalf("EncodeNode: %v", err)
	}
	for _, impl := range []string{"", "bird"} {
		cp, err := DecodeNode(impl, enc)
		if err != nil {
			t.Fatalf("DecodeNode(%q): %v", impl, err)
		}
		if cp.NodeName() != "A" || cp.Implementation() != "bird" {
			t.Errorf("DecodeNode(%q) = %s/%s", impl, cp.NodeName(), cp.Implementation())
		}
	}
	if _, err := DecodeNode("frr", enc); err == nil {
		t.Errorf("mismatched implementation tag must be rejected")
	}
}

// TestMeasureMatchesEncodeExactly pins the arithmetic envelope: Measure
// never materializes the snapshot encoding, yet must agree with it to the
// byte — that identity is what lets stores and rings account for sizes
// without serializing.
func TestMeasureMatchesEncodeExactly(t *testing.T) {
	for _, s := range []*Snapshot{
		sampleSnapshot(t),
		sampleSnapshot(t).DropChannelState(),
	} {
		data, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		sizes, err := Measure(s)
		if err != nil {
			t.Fatalf("Measure: %v", err)
		}
		if sizes.TotalBytes != len(data) {
			t.Errorf("Measure total %d != len(Encode) %d (consistent=%v)", sizes.TotalBytes, len(data), s.Consistent)
		}
	}
}

func TestCloneIsShallowForNodesDeepForMessages(t *testing.T) {
	s := sampleSnapshot(t)
	c := s.Clone()
	c.InFlight[0].Payload[0] = 99
	if s.InFlight[0].Payload[0] == 99 {
		t.Errorf("clone shares in-flight payload backing array")
	}
	if len(c.Nodes) != len(s.Nodes) {
		t.Errorf("clone lost nodes")
	}
}

func TestDropChannelState(t *testing.T) {
	s := sampleSnapshot(t)
	d := s.DropChannelState()
	if d.Consistent || len(d.InFlight) != 0 {
		t.Errorf("DropChannelState did not drop: %+v", d)
	}
	if !s.Consistent || len(s.InFlight) != 1 {
		t.Errorf("original snapshot mutated")
	}
}

func TestMeasure(t *testing.T) {
	s := sampleSnapshot(t)
	sizes, err := Measure(s)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if sizes.TotalBytes <= 0 || sizes.Messages != 1 {
		t.Errorf("sizes = %+v", sizes)
	}
	if len(sizes.PerNodeBytes) != 2 || sizes.PerNodeBytes["A"] <= 0 {
		t.Errorf("per-node sizes = %+v", sizes.PerNodeBytes)
	}
	if sizes.PerNodeBytes["A"]+sizes.PerNodeBytes["B"] > sizes.TotalBytes*2 {
		t.Errorf("per-node sizes inconsistent with total")
	}
}

func TestNodeNamesSorted(t *testing.T) {
	s := sampleSnapshot(t)
	names := s.NodeNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("NodeNames = %v", names)
	}
}

// TestDecodeSubHeaderInputs: zero-length and sub-header inputs must come back
// as a clean error from both decode surfaces — a
// truncated artifact can never slice-panic the snapshot loader.
func TestDecodeSubHeaderInputs(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {0xD1}, {0xD1, 0xCE}, {0xD1, 0xCE, 1}} {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%#v): no error", data)
		}
		if _, err := DecodeNode("bird", data); err == nil {
			t.Errorf("DecodeNode(bird, %#v): no error", data)
		}
		if _, err := DecodeNode("", data); err == nil {
			t.Errorf("DecodeNode(untagged, %#v): no error", data)
		}
	}
}
