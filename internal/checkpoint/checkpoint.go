// Package checkpoint defines the consistent snapshot that DiCE explores over:
// a set of lightweight per-node checkpoints (opaque node.Checkpoint values,
// possibly from different router implementations) plus the channel state —
// the messages that were in flight when the cut was taken.
//
// Snapshots are taken between emulator events, so the cut is consistent by
// construction: no node state reflects the receipt of a message that is not
// either recorded as delivered or captured in InFlight.
//
// Serialization uses the deterministic binary codec (subpackage codec): a
// versioned header, varint fields, length-prefixed flat slabs and
// always-sorted map iteration, with each node's payload produced by its
// backend's registered canonical encoder. Identical state always encodes to
// identical bytes, which is what makes the content-addressed store (SHA-256
// of the canonical node encoding), the ring's byte-level delta accounting
// and the distributed snapshot patches sound. There is no second format:
// data without the codec header does not decode, and a backend without a
// canonical encoder cannot register.
package checkpoint

import (
	"fmt"
	"sort"
	"time"

	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// Snapshot is a consistent cut of the emulated system.
type Snapshot struct {
	// At is the virtual time at which the cut was taken.
	At time.Duration
	// Nodes maps router names to their checkpoints. Checkpoints are opaque
	// backend values; each names the implementation that can restore it, so
	// one snapshot may mix implementations. Backends register canonical
	// codec encoders, which is what lets the interface-typed map cross
	// process boundaries.
	Nodes map[string]node.Checkpoint
	// InFlight is the channel state: messages sent but not yet delivered at
	// the cut.
	InFlight []netem.QueuedMessage
	// Consistent records whether the channel state was captured. The
	// inconsistent-cut ablation sets it to false and drops InFlight.
	Consistent bool
}

// Clone returns a deep copy of the snapshot's structure. Node checkpoints are
// shared: they are immutable once taken (restoring builds new routers).
func (s *Snapshot) Clone() *Snapshot {
	out := &Snapshot{At: s.At, Consistent: s.Consistent}
	out.Nodes = make(map[string]node.Checkpoint, len(s.Nodes))
	for k, v := range s.Nodes {
		out.Nodes[k] = v
	}
	out.InFlight = make([]netem.QueuedMessage, len(s.InFlight))
	for i, m := range s.InFlight {
		m.Payload = append([]byte(nil), m.Payload...)
		out.InFlight[i] = m
	}
	return out
}

// NodeNames returns the checkpointed node names, sorted.
func (s *Snapshot) NodeNames() []string {
	names := make([]string, 0, len(s.Nodes))
	for name := range s.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DropChannelState returns a copy of the snapshot without the in-flight
// messages, modelling naive per-node checkpoints that ignore channel state.
func (s *Snapshot) DropChannelState() *Snapshot {
	out := s.Clone()
	out.InFlight = nil
	out.Consistent = false
	return out
}

// Encode serializes the snapshot in the deterministic codec format: header,
// envelope fields, the sorted node table (each entry a name plus the node's
// canonical encoding, byte-identical to EncodeNode's output), and the
// in-flight messages. The result is what the overhead experiment reports as
// "snapshot size".
func Encode(s *Snapshot) ([]byte, error) {
	w := codec.NewWriter()
	w.Header(codec.KindSnapshot)
	w.Varint(int64(s.At))
	w.Bool(s.Consistent)
	names := s.NodeNames()
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		enc, err := EncodeNode(s.Nodes[name])
		if err != nil {
			return nil, fmt.Errorf("checkpoint: encode: %w", err)
		}
		w.String(name)
		w.Blob(enc)
	}
	PutInFlight(w, s.InFlight)
	return w.Bytes(), nil
}

// Decode deserializes a snapshot produced by Encode.
func Decode(data []byte) (*Snapshot, error) {
	r := codec.NewReader(data)
	r.Header(codec.KindSnapshot)
	s := &Snapshot{
		At:         time.Duration(r.Varint()),
		Consistent: r.Bool(),
	}
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	s.Nodes = make(map[string]node.Checkpoint, n)
	for i := 0; i < n; i++ {
		name := r.String()
		enc := r.Blob()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: decode: %w", err)
		}
		cp, err := DecodeNode("", enc)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decode node %q: %w", name, err)
		}
		s.Nodes[name] = cp
	}
	s.InFlight = InFlight(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return s, nil
}

// EncodeNode serializes a single node checkpoint in its canonical form: the
// codec header, the implementation tag, and the backend's canonical payload.
// This is the content-addressed unit — Store hashes, ring deltas and shipped
// node patches are all computed over exactly these bytes.
func EncodeNode(cp node.Checkpoint) ([]byte, error) {
	be, err := node.BackendFor(cp.Implementation())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode node %s: %w", cp.NodeName(), err)
	}
	payload, err := be.EncodeCanonical(cp)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode node %s: %w", cp.NodeName(), err)
	}
	w := codec.NewWriter()
	w.Header(codec.KindNode)
	w.String(cp.Implementation())
	w.Blob(payload)
	return w.Bytes(), nil
}

// PutInFlight writes the in-flight message list.
func PutInFlight(w *codec.Writer, msgs []netem.QueuedMessage) {
	w.Uvarint(uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		w.String(string(m.From))
		w.String(string(m.To))
		w.Blob(m.Payload)
		w.Varint(int64(m.Deliver))
	}
}

// InFlight reads the in-flight message list; zero count decodes to nil.
func InFlight(r *codec.Reader) []netem.QueuedMessage {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]netem.QueuedMessage, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, netem.QueuedMessage{
			From:    netem.NodeID(r.String()),
			To:      netem.NodeID(r.String()),
			Payload: r.Blob(),
			Deliver: time.Duration(r.Varint()),
		})
	}
	return out
}

// inFlightLen returns the encoded size of the in-flight message list,
// byte-exact with PutInFlight.
func inFlightLen(msgs []netem.QueuedMessage) int {
	n := codec.UvarintLen(uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		n += codec.StringLen(string(m.From)) + codec.StringLen(string(m.To)) +
			codec.BlobLen(m.Payload) + codec.VarintLen(int64(m.Deliver))
	}
	return n
}

// Sizes summarizes a snapshot's encoded footprint.
type Sizes struct {
	// TotalBytes is the snapshot's total encoded footprint: byte-exact with
	// len(Encode(s)) — the per-node canonical encodings plus the envelope
	// (header, cut metadata, node table framing, in-flight messages).
	TotalBytes   int
	PerNodeBytes map[string]int
	Messages     int
}

// NodeBytes is the sum of the per-node encodings: what shipping every node's
// full state, without the envelope, would cost.
func (s Sizes) NodeBytes() int {
	total := 0
	for _, n := range s.PerNodeBytes {
		total += n
	}
	return total
}

// Measure reports the snapshot's encoded footprint. Every node checkpoint is
// encoded exactly once (the canonical codec form); the envelope's size is
// computed arithmetically, so TotalBytes equals len(Encode(s)) without ever
// materializing the full snapshot encoding.
func Measure(s *Snapshot) (Sizes, error) {
	perNode, err := MeasureNodes(s)
	if err != nil {
		return Sizes{}, err
	}
	return measureFromEncodedLens(s, perNode), nil
}

// measureFromEncodedLens assembles Sizes from per-node canonical encoding
// lengths, adding the envelope arithmetic shared with Encode.
func measureFromEncodedLens(s *Snapshot, perNode map[string]int) Sizes {
	out := Sizes{PerNodeBytes: perNode, Messages: len(s.InFlight)}
	total := codec.HeaderLen + codec.VarintLen(int64(s.At)) + 1 +
		codec.UvarintLen(uint64(len(s.Nodes))) + inFlightLen(s.InFlight)
	for name, n := range perNode {
		total += codec.StringLen(name) + codec.UvarintLen(uint64(n)) + n
	}
	out.TotalBytes = total
	return out
}

// MeasureNodes reports each node checkpoint's canonical encoded size without
// paying for a full-snapshot encoding — the call for code that only needs
// per-node size accounting.
func MeasureNodes(s *Snapshot) (map[string]int, error) {
	perNode := make(map[string]int, len(s.Nodes))
	//dice:allow detrange each node is encoded independently and stored keyed by name; no cross-entry byte stream exists
	for name, cp := range s.Nodes {
		enc, err := EncodeNode(cp)
		if err != nil {
			return nil, err
		}
		perNode[name] = len(enc)
	}
	return perNode, nil
}
