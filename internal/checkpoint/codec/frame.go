package codec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Family groups the kinds that share one version byte: a revision of the
// control protocol must not invalidate checkpoint artifacts on disk, so the
// header's version byte versions the kind's family, not the whole codec.
type Family byte

// Kind families, in disjoint kind ranges.
const (
	// Artifact: self-contained files and blobs (snapshot, node, history).
	// They carry the header and no length — their extent is the file's.
	Artifact Family = iota + 1
	// Control: dice-control ↔ dice-agent messages, one stream frame each.
	Control
	// Proc: the procdriver parent ↔ child pipe, one stream frame each.
	Proc
)

// Family versions. Version (the artifact family's) is declared with the
// header constants; bump a family's version on any incompatible change to
// one of its kinds.
const (
	// VersionControl is the control wire revision. 2 moved baselines to the
	// codec encoding and added content hashes; 3 reduced results to digests
	// (RemoteResult); 4 replaced the gob message bodies and the 'D''W'
	// header with codec records in this package's stream frame.
	VersionControl = 4
	// VersionProc is the procdriver pipe revision.
	VersionProc = 1
)

// Control message kinds.
const (
	KindHello = 0x10 + iota
	KindWelcome
	KindBaselineRequest
	KindBaseline
	KindLeaseRequest
	KindLease
	KindNoWork
	KindHeartbeat
	KindHeartbeatAck
	KindShardResult
	KindResultAck
)

// Procdriver pipe kinds. Parent→child kinds are requests; each is answered
// by exactly one KindProcDone or KindProcErr, possibly preceded by effect
// and hook frames.
const (
	KindProcBuild      = 0x40 + iota // config → construct the inner router
	KindProcRestore                  // EncodeNode blob → restore the inner router
	KindProcReset                    // EncodeNode blob → in-place ResetTo
	KindProcStart                    // now → inner.Start
	KindProcDeliver                  // now, from, payload → inner.HandleMessage
	KindProcTimer                    // now, name → inner.HandleTimer
	KindProcArm                      // fromPeer, maxBranches, input regions → ExploreNextUpdate
	KindProcHookSet                  // bool → install/remove the forwarding hook
	KindProcCheckpoint               // → TakeCheckpoint, reply carries EncodeNode blob
	KindProcHookReply                // parent's answer to KindProcHook
)

// Child→parent replies and mid-request traffic.
const (
	KindProcEffectSend        = 0x60 + iota // to, payload
	KindProcEffectSetTimer                  // name, duration
	KindProcEffectCancelTimer               // name
	KindProcEffectLog                       // rendered line
	KindProcHook                            // update hook callback: runs parent-side
	KindProcDone                            // request complete (optional trace, blob)
	KindProcErr                             // request failed
)

// Payload bounds. A frame's length is checked against its kind's bound
// before it sizes an allocation, so a corrupt or hostile length prefix costs
// an error, not memory.
const (
	maxSmall = 4 << 10  // identifiers and flags: agent IDs, acks, polls
	maxBulk  = 64 << 20 // baselines, leases with deltas, shard results
	// maxNode bounds anything carrying one node's checkpoint. Checkpoints of
	// large RIBs dominate the procdriver pipe; 1<<28 is far above any real
	// node state.
	maxNode = 1 << 28
)

// kindInfo is one row of the kind table.
type kindInfo struct {
	name   string
	family Family
	max    uint32
}

// kinds is the one table of everything that may follow the header magic. A
// kind with no row is unknown and rejected.
var kinds = [256]kindInfo{
	KindSnapshot: {"snapshot", Artifact, maxNode},
	KindNode:     {"node", Artifact, maxNode},
	KindHistory:  {"history", Artifact, maxBulk},

	KindHello:           {"hello", Control, maxSmall},
	KindWelcome:         {"welcome", Control, maxSmall},
	KindBaselineRequest: {"baseline-request", Control, maxSmall},
	KindBaseline:        {"baseline", Control, maxBulk},
	KindLeaseRequest:    {"lease-request", Control, maxSmall},
	KindLease:           {"lease", Control, maxBulk},
	KindNoWork:          {"no-work", Control, maxSmall},
	KindHeartbeat:       {"heartbeat", Control, maxSmall},
	KindHeartbeatAck:    {"heartbeat-ack", Control, maxSmall},
	KindShardResult:     {"shard-result", Control, maxBulk},
	KindResultAck:       {"result-ack", Control, maxSmall},

	KindProcBuild:             {"proc-build", Proc, maxBulk},
	KindProcRestore:           {"proc-restore", Proc, maxNode},
	KindProcReset:             {"proc-reset", Proc, maxNode},
	KindProcStart:             {"proc-start", Proc, maxSmall},
	KindProcDeliver:           {"proc-deliver", Proc, maxBulk},
	KindProcTimer:             {"proc-timer", Proc, maxSmall},
	KindProcArm:               {"proc-arm", Proc, maxBulk},
	KindProcHookSet:           {"proc-hook-set", Proc, maxSmall},
	KindProcCheckpoint:        {"proc-checkpoint", Proc, maxSmall},
	KindProcHookReply:         {"proc-hook-reply", Proc, maxBulk},
	KindProcEffectSend:        {"proc-effect-send", Proc, maxBulk},
	KindProcEffectSetTimer:    {"proc-effect-set-timer", Proc, maxSmall},
	KindProcEffectCancelTimer: {"proc-effect-cancel-timer", Proc, maxSmall},
	KindProcEffectLog:         {"proc-effect-log", Proc, maxBulk},
	KindProcHook:              {"proc-hook", Proc, maxBulk},
	KindProcDone:              {"proc-done", Proc, maxNode},
	KindProcErr:               {"proc-err", Proc, maxBulk},
}

var familyVersion = [...]byte{Artifact: Version, Control: VersionControl, Proc: VersionProc}

// KindName returns the table name of a kind, or "" when the kind is unknown.
func KindName(kind byte) string { return kinds[kind].name }

// FrameHeaderLen is the stream frame's fixed prefix: the 4-byte header plus
// a little-endian u32 payload length.
const FrameHeaderLen = HeaderLen + 4

// WriteFrame writes payload as one stream frame of the given kind — header,
// length, payload — and returns the bytes written. An unknown kind or a
// payload over the kind's bound is refused before anything is written.
func WriteFrame(w io.Writer, kind byte, payload []byte) (int, error) {
	k := kinds[kind]
	if k.name == "" {
		return 0, fmt.Errorf("codec: cannot frame unknown kind %#02x", kind)
	}
	if uint64(len(payload)) > uint64(k.max) {
		return 0, fmt.Errorf("codec: %s payload %d exceeds bound %d", k.name, len(payload), k.max)
	}
	hdr := [FrameHeaderLen]byte{Magic0, Magic1, familyVersion[k.family], kind}
	binary.LittleEndian.PutUint32(hdr[HeaderLen:], uint32(len(payload)))
	n, err := w.Write(hdr[:])
	if err != nil || len(payload) == 0 {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}

// ReadFrame reads one stream frame of the given family and returns its kind
// and payload. The header is validated field by field — magic, kind known
// and of this family, family version, length within the kind's bound — before
// the payload is allocated. A stream that ends cleanly between frames reports
// an error wrapping io.EOF.
func ReadFrame(r io.Reader, fam Family) (kind byte, payload []byte, err error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("codec: frame header: %w", err)
	}
	k := kinds[hdr[3]]
	n := binary.LittleEndian.Uint32(hdr[HeaderLen:])
	switch {
	case hdr[0] != Magic0 || hdr[1] != Magic1:
		return 0, nil, fmt.Errorf("codec: bad frame magic %#02x %#02x", hdr[0], hdr[1])
	case k.name == "":
		return 0, nil, fmt.Errorf("codec: unknown frame kind %#02x", hdr[3])
	case k.family != fam:
		return 0, nil, fmt.Errorf("codec: %s frame does not belong on this stream", k.name)
	case hdr[2] != familyVersion[fam]:
		return 0, nil, fmt.Errorf("codec: unsupported %s frame version %d (have %d)", k.name, hdr[2], familyVersion[fam])
	case n > k.max:
		return 0, nil, fmt.Errorf("codec: %s frame length %d exceeds bound %d", k.name, n, k.max)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("codec: truncated %s frame: %w", k.name, err)
	}
	return hdr[3], payload, nil
}
