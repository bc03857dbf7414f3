package checkpoint

import (
	"bytes"
	"testing"

	"github.com/dice-project/dice/internal/bird"
)

// TestDiffApplyRoundTrip: diffing a diverged snapshot against the baseline
// and applying the delta on a second store over the same baseline must
// reproduce the diverged snapshot byte for byte (per-node encodings), while
// unchanged nodes ship nothing and share the baseline checkpoint value.
func TestDiffApplyRoundTrip(t *testing.T) {
	base := sampleSnapshot(t)
	sender, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}

	// Diverge node A; leave B untouched.
	r, err := sender.Restore("A")
	if err != nil {
		t.Fatal(err)
	}
	taken, ok := r.TakeCheckpoint().(*bird.Checkpoint)
	if !ok {
		t.Fatalf("checkpoint is %T, want *bird.Checkpoint", r.TakeCheckpoint())
	}
	// A taken checkpoint is immutable: diverge a copy.
	diverged := new(bird.Checkpoint)
	*diverged = *taken
	diverged.Stats.UpdatesReceived += 7
	target := base.Clone()
	target.Nodes["A"] = diverged
	target.At += 42

	d, err := sender.DiffSnapshot(target)
	if err != nil {
		t.Fatalf("DiffSnapshot: %v", err)
	}
	if len(d.Patches) != 1 || d.Patches[0].Node != "A" {
		t.Fatalf("patches = %+v, want exactly one for A", d.Patches)
	}
	if d.Empty() {
		t.Fatalf("diverged delta reports Empty")
	}
	// The materialized patch must agree with the long-standing Delta sizing.
	sized, err := sender.Delta("A", diverged)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Patches[0].Patch) + deltaFraming; got != sized.DeltaBytes {
		t.Errorf("patch ships %d bytes, Delta accounting says %d", got, sized.DeltaBytes)
	}

	// The receiver holds its own store over the same baseline.
	receiver, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got.At != target.At || got.Consistent != target.Consistent {
		t.Errorf("envelope mismatch: got (%v,%v) want (%v,%v)", got.At, got.Consistent, target.At, target.Consistent)
	}
	for name := range target.Nodes {
		want, err := EncodeNode(target.Nodes[name])
		if err != nil {
			t.Fatal(err)
		}
		have, err := EncodeNode(got.Nodes[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Errorf("node %s: applied encoding differs from target", name)
		}
	}
	if got.Nodes["B"] != base.Nodes["B"] {
		t.Errorf("unchanged node B was not shared with the baseline")
	}
}

// TestDiffSnapshotIdentical: a snapshot equal to the baseline deltas to zero
// patches, and applying it shares every node checkpoint.
func TestDiffSnapshotIdentical(t *testing.T) {
	base := sampleSnapshot(t)
	store, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.DiffSnapshot(base)
	if err != nil {
		t.Fatalf("DiffSnapshot: %v", err)
	}
	if !d.Empty() {
		t.Fatalf("identical snapshot produced patches: %+v", d.Patches)
	}
	if d.WireSize() <= 0 {
		t.Errorf("WireSize = %d, want at least the channel envelope", d.WireSize())
	}
	got, err := store.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	for name := range base.Nodes {
		if got.Nodes[name] != base.Nodes[name] {
			t.Errorf("node %s was rebuilt instead of shared", name)
		}
	}
	if len(got.InFlight) != len(base.InFlight) {
		t.Errorf("in-flight messages lost: got %d want %d", len(got.InFlight), len(base.InFlight))
	}
}

func TestDiffSnapshotCannotDropNode(t *testing.T) {
	base := sampleSnapshot(t)
	store, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	short := base.Clone()
	delete(short.Nodes, "B")
	if _, err := store.DiffSnapshot(short); err == nil {
		t.Fatalf("dropping a node must fail to diff")
	}
}

// TestApplyDeltaRejectsMalformed: corrupt patch geometry errors instead of
// panicking or producing a corrupt snapshot — the wire feeds this path.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	base := sampleSnapshot(t)
	store, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []NodePatch{
		{Node: "A", PrefixLen: -1, FullLen: 10, Patch: make([]byte, 11)},
		{Node: "A", PrefixLen: 1 << 30, SuffixLen: 1 << 30, FullLen: 4, Patch: nil},
		{Node: "A", PrefixLen: 0, SuffixLen: 0, FullLen: 99, Patch: []byte{1, 2, 3}},
		{Node: "ghost", Impl: "bird", PrefixLen: 4, SuffixLen: 0, FullLen: 4, Patch: nil},         // no baseline to copy from
		{Node: "A", Impl: "bird", PrefixLen: 0, SuffixLen: 0, FullLen: 3, Patch: []byte{1, 2, 3}}, // undecodable content
		{Node: "A", Impl: "no-such-impl", PrefixLen: 0, SuffixLen: 0, FullLen: 0, Patch: nil},     // unknown backend
	}
	for i, p := range cases {
		if _, err := store.ApplyDelta(&SnapshotDelta{Patches: []NodePatch{p}}); err == nil {
			t.Errorf("case %d: malformed patch %+v accepted", i, p)
		}
	}
}
