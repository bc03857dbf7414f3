package speaker

import (
	"fmt"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/node"
)

// This file is the canonical checkpoint payload: the deterministic binary
// form the checkpoint layer content-addresses and ships. The field order is
// fixed; everything map-shaped travels sorted, so identical router state
// always encodes to identical bytes — the property the content-addressed
// store, the ring's byte-level delta accounting and the distributed shard
// patches are built on. The RIB, session, counter and event slabs are the
// shared codec forms, so a mixed-implementation snapshot is canonical end to
// end; a dialect shapes only the configuration section and whether the
// engine counters ride along.

// engineStatsFieldCount pins the EngineStats field set the codec
// serializes. Changing EngineStats requires bumping this constant together
// with putEngineStats/engineStats — the decoder rejects any other count
// instead of misaligning. dice-vet's codecpin analyzer verifies the pin
// against the struct.
//
//dice:fieldpin EngineStats
const engineStatsFieldCount = 3

func putEngineStats(w *codec.Writer, s EngineStats) {
	w.Uvarint(engineStatsFieldCount)
	w.Varint(int64(s.ImsgsSEToRDE))
	w.Varint(int64(s.ImsgsRDEToSE))
	w.Varint(int64(s.RDEDecisions))
}

func engineStats(r *codec.Reader) EngineStats {
	var s EngineStats
	if n := r.Uvarint(); r.Err() == nil && n != engineStatsFieldCount {
		r.Fail("engine stats field count %d, want %d", n, engineStatsFieldCount)
		return s
	}
	s.ImsgsSEToRDE = int(r.Varint())
	s.ImsgsRDEToSE = int(r.Varint())
	s.RDEDecisions = int(r.Varint())
	return s
}

// encodeCanonical serializes a checkpoint into the codec payload (the body
// checkpoint.EncodeNode frames with the codec header and implementation tag).
func (d *Dialect) encodeCanonical(cp *Checkpoint) []byte {
	w := codec.NewWriter()
	w.String(cp.Name)
	if d.DiscreteConfig {
		w.Uvarint(uint64(cp.AS))
		w.Uvarint(uint64(cp.RouterID))
		codec.PutStrings(w, cp.Networks)
		w.Uvarint(uint64(len(cp.Neighbors)))
		for i := range cp.Neighbors {
			n := &cp.Neighbors[i]
			w.String(n.Name)
			w.Uvarint(uint64(n.AS))
			w.String(n.Import)
			w.String(n.Export)
		}
	}
	w.String(cp.ConfigText)
	if d.DiscreteConfig {
		w.Varint(int64(cp.HoldTime))
		w.Varint(int64(cp.KeepaliveInterval))
		w.Varint(int64(cp.ConnectRetry))
	}
	codec.PutSessionRecords(w, cp.Sessions)
	codec.PutPeerRouteMap(w, cp.AdjIn)
	codec.PutRouteRecords(w, cp.LocRIB)
	codec.PutPeerRouteMap(w, cp.AdjOut)
	codec.PutStats(w, cp.Stats)
	if d.EngineStats {
		putEngineStats(w, cp.Engine)
	}
	codec.PutEventRecords(w, cp.Events)
	w.Bool(cp.Panicked)
	w.String(cp.LastPanic)
	w.Bool(cp.Started)
	return w.Bytes()
}

// decodeCanonical parses a canonical payload back into a checkpoint. The
// result has no in-process config (like any checkpoint that crossed a
// process boundary); restoring re-parses the dialect text.
func (d *Dialect) decodeCanonical(payload []byte) (*Checkpoint, error) {
	r := codec.NewReader(payload)
	cp := &Checkpoint{Impl: d.Name, Name: r.String()}
	if d.DiscreteConfig {
		cp.AS = uint32(r.Uvarint())
		cp.RouterID = uint32(r.Uvarint())
		cp.Networks = codec.Strings(r)
		if n := r.Count(); r.Err() == nil && n > 0 {
			cp.Neighbors = make([]node.NeighborConfig, 0, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				cp.Neighbors = append(cp.Neighbors, node.NeighborConfig{
					Name:   r.String(),
					AS:     bgp.ASN(r.Uvarint()),
					Import: r.String(),
					Export: r.String(),
				})
			}
		}
	}
	cp.ConfigText = r.String()
	if d.DiscreteConfig {
		cp.HoldTime = time.Duration(r.Varint())
		cp.KeepaliveInterval = time.Duration(r.Varint())
		cp.ConnectRetry = time.Duration(r.Varint())
	}
	cp.Sessions = codec.SessionRecords(r)
	cp.AdjIn = codec.PeerRouteMap(r)
	cp.LocRIB = codec.RouteRecords(r)
	cp.AdjOut = codec.PeerRouteMap(r)
	cp.Stats = codec.Stats(r)
	if d.EngineStats {
		cp.Engine = engineStats(r)
	}
	cp.Events = codec.EventRecords(r)
	cp.Panicked = r.Bool()
	cp.LastPanic = r.String()
	cp.Started = r.Bool()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%s: decode canonical checkpoint: %w", d.Name, err)
	}
	return cp, nil
}
