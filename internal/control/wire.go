// Package control is the control plane of distributed DiCE campaign
// execution: it holds the campaign's topology and baseline snapshot,
// partitions the plan into shards, leases shards to agents that dial in
// outbound over HTTP, reassigns the shards of agents that stop heartbeating,
// and aggregates streamed shard results into the exact merge the in-process
// campaign performs — so a campaign sharded across N agents provably equals
// the same campaign run in one process.
//
// The federation privacy boundary becomes the wire protocol here: shard
// results carry checker.Summary envelopes and per-unit result records, never
// node state, and the bytes are accounted with the same Summary.Size()
// convention the in-process bus charges.
package control

import (
	"fmt"
	"io"
	"time"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/topology"
)

// WireVersion is the protocol revision — the version byte of every control
// frame (codec.VersionControl has the history). A peer speaking another
// revision is rejected at the frame header, before any payload is decoded.
const WireVersion = codec.VersionControl

// Hello registers an agent: its self-chosen name, the router backends its
// binary supports and the worker parallelism it offers.
type Hello struct {
	Agent    string
	Backends []string
	Workers  int
}

// Welcome acknowledges registration with the control-assigned agent ID and
// the cadence contract: heartbeat at least every HeartbeatEvery or leased
// shards are reassigned after LeaseTTL.
type Welcome struct {
	AgentID        string
	Campaign       string
	HeartbeatEvery time.Duration
	LeaseTTL       time.Duration
}

// BaselineRequest asks for the campaign baseline; agents send it once after
// registering.
type BaselineRequest struct {
	AgentID string
}

// Baseline is the one-time shipment each agent fetches before leasing: the
// topology, the baseline snapshot in its deterministic codec encoding
// (checkpoint.Encode form) and the campaign's wire-shippable spec.
// Subsequent shard leases ship only deltas against this snapshot.
type Baseline struct {
	Campaign string
	Topo     topology.Topology
	Snapshot []byte
	// SnapshotSHA256 is the content hash of Snapshot. The agent recomputes
	// it after fetching, so a corrupted or mismatched baseline fails at the
	// fetch instead of poisoning every delta applied on top of it.
	SnapshotSHA256 [32]byte
	Spec           dice.RemoteSpec
}

// LeaseRequest asks for the next available shard.
type LeaseRequest struct {
	AgentID string
}

// Lease grants a shard: the units with their plan indices, the lease attempt
// (stale results from a superseded attempt are rejected), and the snapshot
// delta against the agent's baseline. An empty delta means the shard explores
// the baseline cut itself.
type Lease struct {
	Shard       int
	Attempt     int
	UnitIndexes []int
	Units       []dice.Unit
	Delta       checkpoint.SnapshotDelta
}

// NoWork answers a lease request when nothing is assignable. Done reports
// that the campaign has finished and the agent may exit its poll loop.
type NoWork struct {
	Done bool
}

// Heartbeat renews the sender's leases.
type Heartbeat struct {
	AgentID string
}

// HeartbeatAck answers a heartbeat; Cancel tells the agent to abandon its
// current shards (campaign cancelled).
type HeartbeatAck struct {
	Cancel bool
}

// RemoteDetection is one detection's wire form: the violation reduced to its
// privacy-filtered checker.ViolationDigest plus the reproduction coordinates
// (which explored input triggered it, and when). A Violation's free-form
// Detail — the reporting domain's local evidence — never crosses the control
// wire; the digest's Class stands in for the detection's, which the campaign
// always sets from the violation anyway.
type RemoteDetection struct {
	Digest     checker.ViolationDigest
	InputIndex int
	Input      *concolic.Input
	Elapsed    time.Duration
}

// RemoteResult is one unit's dice.Result projected onto the wire: the
// exploration counters and digested detections, without the snapshot
// provenance fields (SnapshotDuration/Bytes/Nodes, InFlightMessages,
// FullStateBytes) — the control plane owns the snapshot and restamps those
// from its own stats when it reassembles the result.
type RemoteResult struct {
	Explorer       string
	FromPeer       string
	Domain         string
	InputsExplored int
	Detections     []RemoteDetection
	DisclosedBytes int
	Duration       time.Duration
	ExplorerStats  concolic.Stats
}

// RemoteResultOf projects a unit result onto its wire form — the agent-side
// half of the privacy boundary, where every detection's Violation collapses
// to checker.DigestOf. A nil result projects to nil.
func RemoteResultOf(r *dice.Result) *RemoteResult {
	if r == nil {
		return nil
	}
	out := &RemoteResult{
		Explorer:       r.Explorer,
		FromPeer:       r.FromPeer,
		Domain:         r.Domain,
		InputsExplored: r.InputsExplored,
		DisclosedBytes: r.DisclosedBytes,
		Duration:       r.Duration,
		ExplorerStats:  r.ExplorerStats,
	}
	for _, d := range r.Detections {
		out.Detections = append(out.Detections, RemoteDetection{
			Digest:     checker.DigestOf(d.Violation),
			InputIndex: d.InputIndex,
			Input:      d.Input,
			Elapsed:    d.Elapsed,
		})
	}
	return out
}

// Result reassembles the control-side dice.Result: violations are rebuilt
// from their digests with a Detail marking remote provenance, and the
// snapshot fields are left zero for the caller to restamp. A nil receiver
// reassembles to nil.
func (r *RemoteResult) Result() *dice.Result {
	if r == nil {
		return nil
	}
	out := &dice.Result{
		Explorer:       r.Explorer,
		FromPeer:       r.FromPeer,
		Domain:         r.Domain,
		InputsExplored: r.InputsExplored,
		DisclosedBytes: r.DisclosedBytes,
		Duration:       r.Duration,
		ExplorerStats:  r.ExplorerStats,
	}
	for _, d := range r.Detections {
		out.Detections = append(out.Detections, dice.Detection{
			Violation:  d.Digest.ViolationVia("remote agent"),
			Class:      d.Digest.Class,
			InputIndex: d.InputIndex,
			Input:      d.Input,
			Elapsed:    d.Elapsed,
		})
	}
	return out
}

// UnitResult is one unit's outcome inside a shard result, addressed by plan
// index. Err carries a failed unit's error text (Result nil in that case).
type UnitResult struct {
	Index  int
	Result *RemoteResult
	Err    string
}

// ShardResult reports a completed shard: per-unit outcomes plus the
// federation envelopes the agent's local bus published while exploring
// (checker.Summary payloads only — this is everything that crosses the wire
// back and the basis of the disclosure accounting). It crosses the federation
// privacy boundary, so dice-vet's privleak analyzer proves nothing beyond
// summary-grade content is reachable from it.
//
//dice:boundary
type ShardResult struct {
	AgentID   string
	Shard     int
	Attempt   int
	Units     []UnitResult
	Envelopes []federation.Envelope
}

// ResultAck acknowledges a shard result. Accepted is false when the result
// belonged to a superseded lease attempt and was discarded.
type ResultAck struct {
	Accepted bool
}

// message is a wire message: its kind in the codec kind table and its
// record, the ordered field list that both encodes and decodes it
// (records.go).
type message interface {
	kind() byte
	fields(c rw)
}

// newMessage returns a fresh payload value for each control kind.
var newMessage = map[byte]func() message{
	codec.KindHello:           func() message { return new(Hello) },
	codec.KindWelcome:         func() message { return new(Welcome) },
	codec.KindBaselineRequest: func() message { return new(BaselineRequest) },
	codec.KindBaseline:        func() message { return new(Baseline) },
	codec.KindLeaseRequest:    func() message { return new(LeaseRequest) },
	codec.KindLease:           func() message { return new(Lease) },
	codec.KindNoWork:          func() message { return new(NoWork) },
	codec.KindHeartbeat:       func() message { return new(Heartbeat) },
	codec.KindHeartbeatAck:    func() message { return new(HeartbeatAck) },
	codec.KindShardResult:     func() message { return new(ShardResult) },
	codec.KindResultAck:       func() message { return new(ResultAck) },
}

// EncodeFrame writes msg as one versioned frame and returns the bytes
// written (header plus payload) — the number the wire accounting records.
// The payload is built in full before the first byte is written.
func EncodeFrame(w io.Writer, msg any) (int, error) {
	m, ok := msg.(message)
	if !ok {
		return 0, fmt.Errorf("control: cannot frame %T", msg)
	}
	cw := codec.NewWriter()
	m.fields(rw{w: cw})
	n, err := codec.WriteFrame(w, m.kind(), cw.Bytes())
	if err != nil {
		return n, fmt.Errorf("control: encode %T: %w", msg, err)
	}
	return n, nil
}

// DecodeFrame reads one frame and returns its decoded payload. Malformed
// input — bad magic, unsupported version, unknown kind, oversized or
// truncated payload, corrupt or trailing record bytes — returns an error; it
// never panics, since frames arrive from the network.
func DecodeFrame(r io.Reader) (any, error) {
	msg, _, err := decodeFrame(r)
	return msg, err
}

// decodeFrame is DecodeFrame plus the frame's size on the wire.
func decodeFrame(r io.Reader) (any, int, error) {
	kind, payload, err := codec.ReadFrame(r, codec.Control)
	if err != nil {
		return nil, 0, fmt.Errorf("control: %w", err)
	}
	mk := newMessage[kind]
	if mk == nil {
		return nil, 0, fmt.Errorf("control: no message for frame kind %s", codec.KindName(kind))
	}
	m := mk()
	cr := codec.NewReader(payload)
	m.fields(rw{r: cr})
	if err := cr.Close(); err != nil {
		return nil, 0, fmt.Errorf("control: decode %T: %w", m, err)
	}
	return m, codec.FrameHeaderLen + len(payload), nil
}
