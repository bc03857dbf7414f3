package checkpoint

import (
	"bytes"
	"fmt"

	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
	"time"
)

// DecodeNode deserializes a single node checkpoint produced by EncodeNode.
// The encoding carries its implementation tag in-band, so impl may be empty;
// it must match when supplied.
func DecodeNode(impl string, data []byte) (node.Checkpoint, error) {
	r := codec.NewReader(data)
	r.Header(codec.KindNode)
	tagged := r.String()
	payload := r.Blob()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: decode node: %w", err)
	}
	if impl != "" && impl != tagged {
		return nil, fmt.Errorf("checkpoint: decode node: encoding is %q, not %q", tagged, impl)
	}
	be, err := node.BackendFor(tagged)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode node: %w", err)
	}
	return be.DecodeCanonical(payload)
}

// NodePatch is the shipping form of one node's divergence from a baseline
// encoding: the bytes both encodings share as a common prefix and suffix are
// referenced by length only, and Patch replaces the differing middle. It is
// the materialization of the binary delta Store.Delta has always *sized* —
// DeltaBytes there is len(Patch) plus framing, so the accounting and the
// wire agree by construction.
type NodePatch struct {
	// Node names the patched node; Impl the backend that decodes the patched
	// encoding.
	Node string
	Impl string
	// PrefixLen and SuffixLen are the byte counts copied verbatim from the
	// baseline encoding's start and end.
	PrefixLen, SuffixLen int
	// Patch is the replacement middle section.
	Patch []byte
	// FullLen is the patched encoding's total length, validated on apply:
	// FullLen == PrefixLen + len(Patch) + SuffixLen.
	FullLen int
	// FullHash is the content address of the patched encoding (SHA-256 of
	// the canonical bytes). Apply verifies the reconstruction against it
	// when set, so a patch applied to the wrong baseline fails loudly
	// instead of decoding into a silently wrong snapshot.
	FullHash Hash
}

// SnapshotDelta is the wire shipping form of a snapshot relative to a
// baseline snapshot both sides hold: the channel-state envelope travels
// whole (it is small and has no stable baseline), while node checkpoints —
// the dominant term — travel as per-node binary patches, with unchanged
// nodes omitted entirely. The distributed control plane ships shards as
// deltas against the baseline each agent fetched once; for a single-cut
// campaign the delta is empty, and live-mode epochs pay only for what
// drifted.
type SnapshotDelta struct {
	// At, Consistent and InFlight are the channel-state envelope of the
	// target snapshot.
	At         time.Duration
	Consistent bool
	InFlight   []netem.QueuedMessage
	// Patches covers exactly the nodes whose encoding differs from the
	// baseline, in sorted node order.
	Patches []NodePatch
}

// Empty reports whether applying the delta would reproduce a snapshot with
// the baseline's node states (only the channel envelope travels).
func (d *SnapshotDelta) Empty() bool { return len(d.Patches) == 0 }

// DiffSnapshot expresses snap as a delta against the store's baseline
// snapshot. Every baseline node must appear in snap (a delta cannot express
// node removal); nodes absent from the baseline ship as full-content patches
// (zero-length prefix and suffix). Node checkpoints are compared by their
// encodings, using the same common-prefix/common-suffix trim Store.Delta
// sizes, so DiffSnapshot's wire cost matches the long-standing delta
// accounting.
func (s *Store) DiffSnapshot(snap *Snapshot) (*SnapshotDelta, error) {
	if err := s.encodeBaselines(); err != nil {
		return nil, err
	}
	for name := range s.snap.Nodes {
		if _, ok := snap.Nodes[name]; !ok {
			return nil, fmt.Errorf("checkpoint: delta cannot drop node %q", name)
		}
	}
	d := &SnapshotDelta{At: snap.At, Consistent: snap.Consistent}
	d.InFlight = append(d.InFlight, snap.InFlight...)
	for _, name := range snap.NodeNames() {
		full, err := EncodeNode(snap.Nodes[name])
		if err != nil {
			return nil, err
		}
		base, known := s.baseline[name]
		if known && bytes.Equal(base, full) {
			continue
		}
		prefix := commonPrefix(base, full)
		suffix := commonSuffix(base[prefix:], full[prefix:])
		d.Patches = append(d.Patches, NodePatch{
			Node:      name,
			Impl:      snap.Nodes[name].Implementation(),
			PrefixLen: prefix,
			SuffixLen: suffix,
			Patch:     full[prefix : len(full)-suffix],
			FullLen:   len(full),
			FullHash:  HashBytes(full),
		})
	}
	return d, nil
}

// ApplyDelta reconstructs the snapshot DiffSnapshot expressed against this
// store's baseline. Unpatched node checkpoints are shared with the baseline
// snapshot (checkpoints are immutable once taken); patched nodes are rebuilt
// from the baseline encoding plus the patch and decoded through the backend
// registry. Malformed patches — lengths out of bounds or inconsistent with
// FullLen — error rather than producing a corrupt snapshot.
func (s *Store) ApplyDelta(d *SnapshotDelta) (*Snapshot, error) {
	if err := s.encodeBaselines(); err != nil {
		return nil, err
	}
	out := &Snapshot{
		At:         d.At,
		Consistent: d.Consistent,
		Nodes:      make(map[string]node.Checkpoint, len(s.snap.Nodes)),
	}
	out.InFlight = append(out.InFlight, d.InFlight...)
	for name, cp := range s.snap.Nodes {
		out.Nodes[name] = cp
	}
	for _, p := range d.Patches {
		base := s.baseline[p.Node] // nil for nodes new to the baseline
		if p.PrefixLen < 0 || p.SuffixLen < 0 ||
			p.PrefixLen+p.SuffixLen > len(base) ||
			p.FullLen != p.PrefixLen+len(p.Patch)+p.SuffixLen {
			return nil, fmt.Errorf("checkpoint: malformed patch for node %q (prefix %d, suffix %d, patch %d, full %d, baseline %d)",
				p.Node, p.PrefixLen, p.SuffixLen, len(p.Patch), p.FullLen, len(base))
		}
		full := make([]byte, 0, p.FullLen)
		full = append(full, base[:p.PrefixLen]...)
		full = append(full, p.Patch...)
		full = append(full, base[len(base)-p.SuffixLen:]...)
		if !p.FullHash.IsZero() {
			if got := HashBytes(full); got != p.FullHash {
				return nil, fmt.Errorf("checkpoint: patch for node %q reconstructs content %s, want %s (baseline mismatch or corrupt patch)",
					p.Node, got, p.FullHash)
			}
		}
		cp, err := DecodeNode(p.Impl, full)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: apply patch for node %q: %w", p.Node, err)
		}
		out.Nodes[p.Node] = cp
	}
	return out, nil
}

// WireSize approximates the delta's shipping cost: the codec-sized channel
// envelope plus each patch's content, framing and content hash, matching
// Store.Delta's per-node DeltaBytes convention.
func (d *SnapshotDelta) WireSize() int {
	n := codec.VarintLen(int64(d.At)) + 1 + inFlightLen(d.InFlight)
	for _, p := range d.Patches {
		n += len(p.Patch) + deltaFraming + HashSize
	}
	return n
}
