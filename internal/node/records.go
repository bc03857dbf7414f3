package node

import (
	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
)

// RouteRecord is the serializable form of one RIB entry. It carries no
// pointers or interfaces, so the codec encodes it field by field.
// Every backend checkpoints its RIB contents as RouteRecords; what differs
// per backend is the configuration dialect wrapped around them.
type RouteRecord struct {
	Prefix       string
	Origin       uint8
	ASPath       []uint32
	ASSet        []uint32
	NextHop      uint32
	HasMED       bool
	MED          uint32
	HasLocalPref bool
	LocalPref    uint32
	Communities  []uint32
	Peer         string
	PeerAS       uint32
	PeerRouterID uint32
	EBGP         bool
	Local        bool
	// Age is the Loc-RIB arrival stamp (rib.Route.Age); zero for routes that
	// never received one (Adj-RIB entries, legacy checkpoints).
	Age uint64
}

// RecordFromRoute flattens a RIB route into its serializable record.
func RecordFromRoute(r *rib.Route) RouteRecord {
	rec := RouteRecord{
		Prefix:       r.Prefix.String(),
		Origin:       r.Attrs.Origin,
		NextHop:      r.Attrs.NextHop,
		Peer:         r.Peer,
		PeerAS:       uint32(r.PeerAS),
		PeerRouterID: uint32(r.PeerRouterID),
		EBGP:         r.EBGP,
		Local:        r.Local,
		Age:          r.Age,
	}
	for _, a := range r.Attrs.ASPath {
		rec.ASPath = append(rec.ASPath, uint32(a))
	}
	for _, a := range r.Attrs.ASSet {
		rec.ASSet = append(rec.ASSet, uint32(a))
	}
	for _, c := range r.Attrs.Communities {
		rec.Communities = append(rec.Communities, uint32(c))
	}
	if r.Attrs.MED != nil {
		rec.HasMED = true
		rec.MED = *r.Attrs.MED
	}
	if r.Attrs.LocalPref != nil {
		rec.HasLocalPref = true
		rec.LocalPref = *r.Attrs.LocalPref
	}
	return rec
}

// Route reconstructs the RIB route the record was taken from.
func (rec RouteRecord) Route() (*rib.Route, error) {
	p, err := bgp.ParsePrefix(rec.Prefix)
	if err != nil {
		return nil, err
	}
	attrs := &bgp.PathAttributes{
		Origin:  rec.Origin,
		NextHop: rec.NextHop,
	}
	for _, a := range rec.ASPath {
		attrs.ASPath = append(attrs.ASPath, bgp.ASN(a))
	}
	for _, a := range rec.ASSet {
		attrs.ASSet = append(attrs.ASSet, bgp.ASN(a))
	}
	for _, c := range rec.Communities {
		attrs.Communities = append(attrs.Communities, bgp.Community(c))
	}
	if rec.HasMED {
		attrs.SetMED(rec.MED)
	}
	if rec.HasLocalPref {
		attrs.SetLocalPref(rec.LocalPref)
	}
	return &rib.Route{
		Prefix:       p,
		Attrs:        attrs,
		Peer:         rec.Peer,
		PeerAS:       bgp.ASN(rec.PeerAS),
		PeerRouterID: bgp.RouterID(rec.PeerRouterID),
		EBGP:         rec.EBGP,
		Local:        rec.Local,
		Age:          rec.Age,
	}, nil
}

// SessionRecord is the serializable form of one session's state.
type SessionRecord struct {
	Peer                  string
	PeerAS                uint32
	State                 int
	PeerRouterID          uint32
	DownCount             int
	NotificationsSent     int
	NotificationsReceived int
}

// EventRecord is the serializable form of a RouteEvent.
type EventRecord struct {
	AtNanos int64
	Prefix  string
	OldVia  string
	NewVia  string
}

// PeerRouteMap maps a peer name to the route records learned from (or
// advertised to) that peer. The codec writes it in sorted peer order
// (codec.PutPeerRouteMap): shard deltas are binary patches against a
// baseline encoding that control plane and agents compute independently,
// which is only sound when identical state always encodes to identical
// bytes.
type PeerRouteMap map[string][]RouteRecord
