package checkpoint

import (
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bird"
)

func TestStoreRestoresNodes(t *testing.T) {
	s := sampleSnapshot(t)
	store, err := NewStore(s)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if got := store.NodeNames(); len(got) != 2 || got[0] != "A" {
		t.Fatalf("NodeNames = %v", got)
	}
	if store.Snapshot() != s {
		t.Errorf("Snapshot must return the underlying snapshot")
	}
	r, err := store.Restore("A")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r.Config().Name != "A" {
		t.Errorf("restored router %q, want A", r.Config().Name)
	}
	if r.LocRIB().Best(bgp.MustParsePrefix("10.1.0.0/16")) == nil {
		t.Errorf("restored router lost its originated route")
	}
	if _, err := store.Restore("nope"); err == nil {
		t.Errorf("restoring an unknown node must fail")
	}
	if store.Image("nope") != nil || store.State("nope") != nil {
		t.Errorf("unknown node must have no image or state")
	}
}

func TestStoreSizesCachedAndConsistentWithMeasure(t *testing.T) {
	s := sampleSnapshot(t)
	store, err := NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	first, err := store.Sizes()
	if err != nil {
		t.Fatalf("Sizes: %v", err)
	}
	direct, err := Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalBytes != direct.TotalBytes || first.Messages != direct.Messages {
		t.Errorf("store sizes %+v differ from Measure %+v", first, direct)
	}
	second, err := store.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	if second.TotalBytes != first.TotalBytes {
		t.Errorf("cached Sizes changed between calls")
	}
}

func TestStoreDelta(t *testing.T) {
	s := sampleSnapshot(t)
	store, err := NewStore(s)
	if err != nil {
		t.Fatal(err)
	}

	// A checkpoint identical to the baseline deltas down to framing only.
	same, err := store.Delta("A", s.Nodes["A"])
	if err != nil {
		t.Fatalf("Delta(identical): %v", err)
	}
	if same.DeltaBytes != deltaFraming {
		t.Errorf("identical checkpoint delta = %d bytes, want framing only (%d)", same.DeltaBytes, deltaFraming)
	}
	if same.FullBytes != same.BaselineBytes {
		t.Errorf("identical checkpoint full size %d != baseline %d", same.FullBytes, same.BaselineBytes)
	}

	// A diverged checkpoint must delta smaller than its full encoding (the
	// bulk of the encoding — config, policies, unchanged tables — is shared
	// with the baseline).
	r, err := store.Restore("A")
	if err != nil {
		t.Fatal(err)
	}
	taken, ok := r.TakeCheckpoint().(*bird.Checkpoint)
	if !ok {
		t.Fatalf("restored router checkpoint is %T, want *bird.Checkpoint", r.TakeCheckpoint())
	}
	// A taken checkpoint is immutable: diverge a copy.
	diverged := new(bird.Checkpoint)
	*diverged = *taken
	diverged.Stats.UpdatesReceived += 3
	d, err := store.Delta("A", diverged)
	if err != nil {
		t.Fatalf("Delta(diverged): %v", err)
	}
	if d.DeltaBytes <= 0 || d.DeltaBytes >= d.FullBytes {
		t.Errorf("diverged delta = %d bytes of %d full; want a real saving", d.DeltaBytes, d.FullBytes)
	}

	if _, err := store.Delta("nope", s.Nodes["A"]); err == nil {
		t.Errorf("delta against an unknown node must fail")
	}
}
