package control

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/topology"
)

// sampleMessages returns one populated instance of every wire message. Every
// field of every struct the wire can carry is non-zero in at least one sample
// (TestSampleMessagesPopulateEveryField), so the round-trip test notices a
// field the records forgot.
func sampleMessages() []any {
	p1 := bgp.MustParsePrefix("10.0.1.0/24")
	topo := *topology.Line(3)
	topo.Nodes[0].Tier, topo.Nodes[0].Impl = 1, "frr"
	topo.Links[0].Rel = topology.RelPeer
	topo.Links[0].Delay, topo.Links[0].Jitter, topo.Links[0].Loss = 3*time.Millisecond, time.Millisecond, 0.125
	return []any{
		&Hello{Agent: "a1", Backends: []string{"bird", "frr"}, Workers: 4},
		&Welcome{AgentID: "agent-1", Campaign: "demo", HeartbeatEvery: time.Second, LeaseTTL: 3 * time.Second},
		&BaselineRequest{AgentID: "agent-1"},
		&Baseline{
			Campaign:       "demo",
			Topo:           topo,
			Snapshot:       []byte{1, 2, 3, 4},
			SnapshotSHA256: checkpoint.HashBytes([]byte{1, 2, 3, 4}),
			Spec: dice.RemoteSpec{
				Seed: 7, FuzzSeeds: 4, UseConcolic: true, ShadowMaxEvents: 1000, Workers: 2,
				HasProperties: true, Properties: []string{"origin-validity"},
				Domains:     []federation.Domain{{Name: "as1", Nodes: []string{"R1"}}},
				ClusterSeed: 1, ClusterMaxEvents: 2000, ClusterGaoRexford: true, ClusterKeepalive: 30 * time.Second,
			},
		},
		&LeaseRequest{AgentID: "agent-1"},
		&Lease{
			Shard: 2, Attempt: 1,
			UnitIndexes: []int{4, 5},
			Units: []dice.Unit{
				{Explorer: "R1", FromPeer: "R2", MaxInputs: 8, FuzzSeeds: 4, Seed: 11, Domain: "as1"},
				{Explorer: "R2", FromPeer: "R1", MaxInputs: 8, FuzzSeeds: 4, Seed: 12},
			},
			Delta: checkpoint.SnapshotDelta{
				At:         5 * time.Second,
				Consistent: true,
				InFlight:   []netem.QueuedMessage{{From: "R1", To: "R2", Payload: []byte{0xFF, 1}, Deliver: 6 * time.Second}},
				Patches: []checkpoint.NodePatch{
					{Node: "R1", Impl: "bird", PrefixLen: 3, SuffixLen: 2, Patch: []byte{9, 9}, FullLen: 7, FullHash: checkpoint.HashBytes([]byte("full"))},
				},
			},
		},
		&NoWork{Done: true},
		&Heartbeat{AgentID: "agent-1"},
		&HeartbeatAck{Cancel: true},
		&ShardResult{
			AgentID: "agent-1", Shard: 2, Attempt: 1,
			Units: []UnitResult{
				{Index: 4, Result: &RemoteResult{
					Explorer: "R1", FromPeer: "R2", Domain: "as1", InputsExplored: 8,
					Detections: []RemoteDetection{{
						Digest:     checker.ViolationDigest{Property: "origin-validity", Class: checker.ClassOperatorMistake, Node: "R3", Prefix: p1, HasPfx: true},
						InputIndex: 3,
						// Five regions: a map this size ranges in a different
						// order on almost every walk, which is what the
						// determinism test needs to bite.
						Input: &concolic.Input{Regions: map[string][]byte{
							"update": {0xFF, 0xFF, 0, 23, 2}, "choice/local-pref": {1}, "choice/med": {0}, "choice/origin": {2}, "choice/as-path": {1},
						}},
						Elapsed: 40 * time.Millisecond,
					}},
					DisclosedBytes: 42, Duration: time.Second,
					ExplorerStats: concolic.Stats{
						Executions: 1, UniquePaths: 2, UniqueInputs: 3, BranchesSeen: 4, CoverageSites: 5, SolverQueries: 6,
						SolverSat: 7, SolverUnsat: 8, SolverUnknown: 9, QueueOverflows: 10, Truncated: 11,
					},
				}},
				{Index: 5, Err: "boom"},
			},
			Envelopes: []federation.Envelope{
				{Seq: 1, From: "as1", To: "as2", Bytes: 42, Summary: checker.Summary{
					Domain: "as1", Checked: 3, OK: true,
					Digests: []checker.ViolationDigest{{Property: "origin-validity", Class: checker.ClassOperatorMistake, Node: "R1"}},
					Edges:   []checker.ForwardingEdge{{Node: "R1", Prefix: p1, NextHop: "R2"}},
				}},
			},
		},
		&ResultAck{Accepted: true},
	}
}

func encodeFrame(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := EncodeFrame(&buf, msg)
	if err != nil {
		t.Fatalf("EncodeFrame(%T): %v", msg, err)
	}
	if n != buf.Len() {
		t.Fatalf("%T: EncodeFrame reported %d bytes, wrote %d", msg, n, buf.Len())
	}
	return buf.Bytes()
}

// TestWireRoundTrip: every message type must encode to one frame and decode
// back equal, and the decoder must report the bytes the encoder wrote.
func TestWireRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		frame := encodeFrame(t, msg)
		got, n, err := decodeFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("DecodeFrame(%T): %v", msg, err)
		}
		if n != len(frame) {
			t.Errorf("%T: decoder counted %d wire bytes, encoder wrote %d", msg, n, len(frame))
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// TestSampleMessagesPopulateEveryField walks the sample messages by
// reflection and requires every field of every struct they reach to be
// non-zero in at least one place. Together with TestWireRoundTrip this is the
// "added a field, forgot the records" alarm for the message types themselves
// (dice-vet's codecpin raises it for the external structs they embed).
func TestSampleMessagesPopulateEveryField(t *testing.T) {
	seen := map[string]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().String() + "." + v.Type().Field(i).Name
				seen[name] = seen[name] || !v.Field(i).IsZero()
				walk(v.Field(i))
			}
		}
	}
	for _, msg := range sampleMessages() {
		walk(reflect.ValueOf(msg))
	}
	if len(seen) < 60 {
		t.Fatalf("walk reached only %d fields; the reflection walk is broken", len(seen))
	}
	for name, nonZero := range seen {
		if !nonZero {
			t.Errorf("%s is zero in every sample message: populate it so the round trip covers it", name)
		}
	}
}

// TestWireEncodingDeterministic: equal messages are equal bytes, every time.
// The ShardResult sample carries a five-region concolic.Input — a plain map
// whose iteration order differs between walks — so an encoder that ranges
// over it unsorted fails here within a few rounds.
func TestWireEncodingDeterministic(t *testing.T) {
	for _, msg := range sampleMessages() {
		want := encodeFrame(t, msg)
		for i := 0; i < 32; i++ {
			if got := encodeFrame(t, msg); !bytes.Equal(got, want) {
				t.Fatalf("%T: encoding %d differs from the first", msg, i)
			}
		}
	}
}

// TestWireRejectsMalformed covers what only this layer can get wrong — the
// record bytes inside a well-formed frame. The header cases (magic, version,
// kind, length, truncation) are codec's TestFrameRejectsMalformed.
func TestWireRejectsMalformed(t *testing.T) {
	heartbeat := encodeFrame(t, &Heartbeat{AgentID: "agent-1"})
	reframe := func(kind byte, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := codec.WriteFrame(&buf, kind, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	payload := heartbeat[codec.FrameHeaderLen:]
	cases := map[string][]byte{
		"empty":                  nil,
		"truncated body":         heartbeat[:len(heartbeat)-1],
		"wrong payload":          reframe(codec.KindBaseline, payload),
		"trailing record bytes":  reframe(codec.KindHeartbeat, append(append([]byte(nil), payload...), 0)),
		"truncated record":       reframe(codec.KindHeartbeat, payload[:len(payload)-1]),
		"count past the payload": reframe(codec.KindHello, []byte{1, 'a', 0x7F}),
		"non-canonical bool":     reframe(codec.KindNoWork, []byte{2}),
		"short hash":             reframe(codec.KindBaseline, []byte{0, 0, 0, 0, 0, 3, 1, 2, 3}),
		"procdriver frame":       reframe(codec.KindProcDone, nil),
		"artifact frame":         reframe(codec.KindNode, nil),
	}
	for name, data := range cases {
		if _, err := DecodeFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
		}
	}
}

// TestWireVersionGate: a mixed-version controller/agent pair fails at the
// frame header, in both directions, before any payload is decoded. Wire v4
// changed the header itself (codec magic, little-endian length) and every
// payload (codec records, not gob), so a v3 peer that slipped past the gate
// would misparse everything after it.
func TestWireVersionGate(t *testing.T) {
	// Old agent → new controller: a checked-in v3 frame ('D''W' magic, gob
	// body — a real Heartbeat written by the parent commit) is refused.
	v3 := []byte("DW\x03\b\x00\x00\x001#\xff\xb7\x03\x01\x01\tHeartbeat\x01\xff\xb8\x00\x01\x01\x01\aAgentID\x01\f\x00\x00\x00\f\xff\xb8\x01\aagent-1\x00")
	if _, err := DecodeFrame(bytes.NewReader(v3)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("v3 agent frame decoded by the v%d controller: %v", WireVersion, err)
	}

	// New controller → old agent: the v3 decoder's header gate, verbatim.
	// A current Baseline frame fails its first check.
	v3Gate := func(b []byte) error {
		if len(b) < 8 || b[0] != 'D' || b[1] != 'W' {
			return errors.New("control: bad frame magic")
		}
		if b[2] != 3 {
			return fmt.Errorf("control: unsupported wire version %d (have 3)", b[2])
		}
		return nil
	}
	baseline := encodeFrame(t, &Baseline{Campaign: "c", Snapshot: []byte{0xD1, 0xCE, 1, 1}})
	if got := baseline[2]; got != WireVersion || WireVersion <= 3 {
		t.Fatalf("baseline frame announces version %d, want %d (> 3)", got, WireVersion)
	}
	if err := v3Gate(baseline); err == nil {
		t.Fatalf("v3 agent accepted a v%d baseline", WireVersion)
	}

	// Within the current header, any other version byte — older or newer —
	// is named as such.
	for _, v := range []byte{WireVersion - 1, WireVersion + 1} {
		skewed := encodeFrame(t, &NoWork{})
		skewed[2] = v
		if _, err := DecodeFrame(bytes.NewReader(skewed)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-%d frame decoded: %v", v, err)
		}
	}
}

// TestWireStreamsMultipleFrames: frames are self-delimiting on one stream.
func TestWireStreamsMultipleFrames(t *testing.T) {
	var buf bytes.Buffer
	msgs := []any{&Heartbeat{AgentID: "a"}, &HeartbeatAck{}, &NoWork{Done: true}}
	for _, m := range msgs {
		if _, err := EncodeFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream decode: got %+v want %+v", got, want)
		}
	}
	if _, err := DecodeFrame(&buf); err == nil || !strings.Contains(err.Error(), "header") || !errors.Is(err, io.EOF) {
		t.Errorf("exhausted stream should report a header EOF, got %v", err)
	}
}

// TestFrameSubHeaderInputs: inputs shorter than the 8-byte frame header —
// including empty and single-byte reads — must error cleanly, never panic.
func TestFrameSubHeaderInputs(t *testing.T) {
	good := encodeFrame(t, &Heartbeat{AgentID: "a"})
	for n := 0; n < codec.FrameHeaderLen; n++ {
		if _, err := DecodeFrame(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("%d-byte frame prefix decoded without error", n)
		}
	}
}

// TestEncodeFrameRejectsUnframeable: values that are not wire messages, and
// messages over their kind's bound, fail before a byte is written.
func TestEncodeFrameRejectsUnframeable(t *testing.T) {
	var buf bytes.Buffer
	if _, err := EncodeFrame(&buf, "not a message"); err == nil || buf.Len() != 0 {
		t.Errorf("framed a string (err %v, wrote %d bytes)", err, buf.Len())
	}
	if _, err := EncodeFrame(&buf, &Heartbeat{AgentID: strings.Repeat("x", 5000)}); err == nil || buf.Len() != 0 {
		t.Errorf("framed an over-bound heartbeat (err %v, wrote %d bytes)", err, buf.Len())
	}
}
