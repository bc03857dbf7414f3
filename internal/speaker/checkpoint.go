package speaker

import (
	"fmt"
	"sort"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
)

// Checkpoint is a lightweight checkpoint of one router: its configuration,
// session states, RIB contents and counters. It contains only plain data and
// can be serialized, cloned, and restored into a fresh Router that behaves
// identically from that state onward — which is exactly what DiCE's
// exploration needs. RIB contents, sessions and counters use the shared
// record forms from package node; the configuration travels as the
// dialect's text.
type Checkpoint struct {
	// Impl is the dialect that took the checkpoint and can restore it.
	Impl string
	Name string
	// ConfigText is the dialect's rendering of the configuration.
	ConfigText string
	// The discrete configuration fields are set only by dialects with
	// DiscreteConfig, whose ConfigText names just the policies.
	AS                uint32
	RouterID          uint32
	Networks          []string
	Neighbors         []node.NeighborConfig
	HoldTime          time.Duration
	KeepaliveInterval time.Duration
	ConnectRetry      time.Duration

	Sessions []node.SessionRecord
	AdjIn    node.PeerRouteMap
	LocRIB   []node.RouteRecord
	AdjOut   node.PeerRouteMap

	Stats node.RouterStats
	// Engine is set only by dialects with EngineStats.
	Engine    EngineStats
	Events    []node.EventRecord
	Panicked  bool
	LastPanic string
	Started   bool

	// cfg keeps the in-process configuration (with its parsed policies) so
	// that a restore within the same process does not re-parse ConfigText.
	// It is intentionally unexported: a checkpoint that crossed a process
	// boundary restores from the textual form.
	cfg *node.Config
}

// NodeName implements node.Checkpoint.
func (cp *Checkpoint) NodeName() string { return cp.Name }

// Implementation implements node.Checkpoint.
func (cp *Checkpoint) Implementation() string { return cp.Impl }

// TakeCheckpoint implements node.Router: the checkpoint last built is handed
// out again, by pointer, until the router next moves (touch).
func (r *Router) TakeCheckpoint() node.Checkpoint {
	if r.cut == nil {
		r.cut = r.Checkpoint()
	}
	return r.cut
}

// Checkpoint captures the router's current state into a fresh value — the one
// builder, which TakeCheckpoint runs when it holds no current checkpoint.
func (r *Router) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Impl:       r.d.Name,
		Name:       r.cfg.Name,
		ConfigText: r.d.Render(r.cfg),
		AdjIn:      make(node.PeerRouteMap, len(r.cfg.Neighbors)),
		AdjOut:     make(node.PeerRouteMap, len(r.cfg.Neighbors)),
		Stats:      r.stats,
		Panicked:   r.panicked,
		LastPanic:  r.lastPanic,
		Started:    r.started,
		cfg:        r.cfg,
	}
	if r.d.DiscreteConfig {
		cp.AS = uint32(r.cfg.AS)
		cp.RouterID = uint32(r.cfg.RouterID)
		for _, p := range r.cfg.Networks {
			cp.Networks = append(cp.Networks, p.String())
		}
		cp.Neighbors = append([]node.NeighborConfig(nil), r.cfg.Neighbors...)
		cp.HoldTime = r.cfg.HoldTime
		cp.KeepaliveInterval = r.cfg.KeepaliveInterval
		cp.ConnectRetry = r.cfg.ConnectRetry
	}
	if r.d.EngineStats {
		cp.Engine = r.engine
	}
	// Every slice is sized before it is filled. Each Loc-RIB candidate is a
	// route some Adj-RIB-In holds or a local one.
	cp.Sessions = make([]node.SessionRecord, 0, len(r.cfg.Neighbors))
	candidates := len(r.cfg.Networks)
	for _, n := range r.cfg.Neighbors {
		s := r.sessions[n.Name]
		cp.Sessions = append(cp.Sessions, node.SessionRecord{
			Peer:                  s.peer,
			PeerAS:                uint32(s.peerAS),
			State:                 r.d.StateCodes[s.state],
			PeerRouterID:          uint32(s.peerRouterID),
			DownCount:             s.downCount,
			NotificationsSent:     s.notificationsSent,
			NotificationsReceived: s.notificationsReceived,
		})
		if recs := recordsOf(s.adjIn.Routes()); recs != nil {
			cp.AdjIn[n.Name] = recs
			candidates += len(recs)
		}
		if recs := recordsOf(s.adjOut.Routes()); recs != nil {
			cp.AdjOut[n.Name] = recs
		}
	}
	cp.LocRIB = make([]node.RouteRecord, 0, candidates)
	for _, p := range r.locRIB.Prefixes() {
		for _, cand := range r.locRIB.Candidates(p) {
			cp.LocRIB = append(cp.LocRIB, node.RecordFromRoute(cand))
		}
	}
	if len(r.events) > 0 {
		cp.Events = make([]node.EventRecord, len(r.events))
		for i, ev := range r.events {
			cp.Events[i] = node.EventRecord{
				AtNanos: int64(ev.At),
				Prefix:  ev.Prefix.String(),
				OldVia:  ev.OldVia,
				NewVia:  ev.NewVia,
			}
		}
	}
	return cp
}

// recordsOf renders routes into their record forms; no routes is nil, so a
// peer without any stays absent from the checkpoint's peer maps.
func recordsOf(routes []*rib.Route) []node.RouteRecord {
	if len(routes) == 0 {
		return nil
	}
	out := make([]node.RouteRecord, len(routes))
	for i, route := range routes {
		out[i] = node.RecordFromRoute(route)
	}
	return out
}

// Image is the immutable, shareable part of a router: its validated
// configuration with parsed policies. An image is built once (per campaign,
// typically) and then shared by every clone of the node — cloning applies
// mutable State onto the image instead of re-parsing configuration text.
//
// Images are safe for concurrent use: nothing in them is mutated after
// construction, and routers built from the same image share the underlying
// *node.Config by pointer.
type Image struct {
	d   *Dialect
	cfg *node.Config
}

// newImage validates the configuration once and freezes it into an image.
// The configuration is deep-copied, so later caller mutations do not leak
// into routers built from the image.
func (d *Dialect) newImage(cfg *node.Config) (*Image, error) {
	cfg = cfg.Clone()
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Image{d: d, cfg: cfg}, nil
}

// ImageOf builds the image for a checkpoint: the in-process configuration
// when the checkpoint never left the process, otherwise the configuration is
// re-parsed from the dialect text — once, instead of once per restore.
func (d *Dialect) ImageOf(cp *Checkpoint) (*Image, error) {
	cfg := cp.cfg
	if cfg == nil {
		parsed, err := d.ParseConfig(cp.ConfigText)
		if err != nil {
			return nil, fmt.Errorf("%s: restore %s: %w", d.Name, cp.Name, err)
		}
		if d.DiscreteConfig {
			parsed.Name = cp.Name
			parsed.AS = bgp.ASN(cp.AS)
			parsed.RouterID = bgp.RouterID(cp.RouterID)
			parsed.Neighbors = cp.Neighbors
			parsed.HoldTime = cp.HoldTime
			parsed.KeepaliveInterval = cp.KeepaliveInterval
			parsed.ConnectRetry = cp.ConnectRetry
			for _, ps := range cp.Networks {
				p, err := bgp.ParsePrefix(ps)
				if err != nil {
					return nil, fmt.Errorf("%s: restore %s: %w", d.Name, cp.Name, err)
				}
				parsed.Networks = append(parsed.Networks, p)
			}
		}
		cfg = parsed
	}
	return d.newImage(cfg)
}

// Name implements node.Image.
func (im *Image) Name() string { return im.cfg.Name }

// Implementation implements node.Image.
func (im *Image) Implementation() string { return im.d.Name }

// State is the decoded, restore-ready mutable state of one checkpoint: the
// session records, RIB routes and counters with all string parsing and
// attribute reconstruction already done. The routes are kept as a flat slab
// template: one instantiation stamps out deep copies of every route with a
// handful of bulk allocations, which is far cheaper than re-parsing
// RouteRecords (and than cloning routes one by one).
//
// A State is immutable after DecodeState and safe to share across concurrent
// restores.
type State struct {
	d *Dialect
	// sessions carry State already translated to SessionState numbering.
	sessions  []node.SessionRecord
	tmpl      routeTemplate
	locRIB    span
	adjIn     []peerSpan
	adjOut    []peerSpan
	stats     node.RouterStats
	engine    EngineStats
	events    []node.RouteEvent
	panicked  bool
	lastPanic string
	started   bool
}

// span is a half-open index range into the template's flat route array.
type span struct{ from, to int }

// peerSpan names the peer a contiguous run of template routes belongs to.
type peerSpan struct {
	peer string
	span span
}

// attrLayout records where one route's attribute slices and optional values
// live inside the template slabs, so instantiation can re-point the copied
// attributes into the fresh slabs.
type attrLayout struct {
	asPathOff, asPathLen int
	asSetOff, asSetLen   int
	commOff, commLen     int
	medIdx, lpIdx        int // -1 when absent
}

// routeTemplate is the slab form of a checkpoint's routes: parallel route and
// attribute arrays plus shared backing slabs for every attribute slice. One
// instantiation performs five bulk allocations regardless of route count.
type routeTemplate struct {
	routes []rib.Route
	attrs  []bgp.PathAttributes
	layout []attrLayout
	asns   []bgp.ASN
	comms  []bgp.Community
	vals   []uint32
}

// add flattens one route into the template. The route's attribute slices are
// appended to the shared slabs; the stored attribute value keeps the original
// slice headers only as documentation — instantiate rebuilds them.
func (tm *routeTemplate) add(r *rib.Route) {
	a := r.Attrs
	la := attrLayout{
		asPathOff: len(tm.asns), asPathLen: len(a.ASPath),
		medIdx: -1, lpIdx: -1,
	}
	tm.asns = append(tm.asns, a.ASPath...)
	la.asSetOff, la.asSetLen = len(tm.asns), len(a.ASSet)
	tm.asns = append(tm.asns, a.ASSet...)
	la.commOff, la.commLen = len(tm.comms), len(a.Communities)
	tm.comms = append(tm.comms, a.Communities...)
	if a.MED != nil {
		la.medIdx = len(tm.vals)
		tm.vals = append(tm.vals, *a.MED)
	}
	if a.LocalPref != nil {
		la.lpIdx = len(tm.vals)
		tm.vals = append(tm.vals, *a.LocalPref)
	}
	tm.routes = append(tm.routes, *r)
	tm.attrs = append(tm.attrs, *a)
	tm.layout = append(tm.layout, la)
}

// instantiate stamps out a fresh deep copy of every template route. The
// copies share nothing with the template or with each other's attribute
// storage (slice capacities are pinned, so appends reallocate rather than
// bleed into a neighboring route's region).
func (tm *routeTemplate) instantiate() []rib.Route {
	routes := make([]rib.Route, len(tm.routes))
	attrs := make([]bgp.PathAttributes, len(tm.attrs))
	asns := make([]bgp.ASN, len(tm.asns))
	comms := make([]bgp.Community, len(tm.comms))
	vals := make([]uint32, len(tm.vals))
	copy(routes, tm.routes)
	copy(attrs, tm.attrs)
	copy(asns, tm.asns)
	copy(comms, tm.comms)
	copy(vals, tm.vals)
	for i := range routes {
		la := &tm.layout[i]
		a := &attrs[i]
		a.ASPath = nil
		a.ASSet = nil
		a.Communities = nil
		a.MED = nil
		a.LocalPref = nil
		if la.asPathLen > 0 {
			end := la.asPathOff + la.asPathLen
			a.ASPath = asns[la.asPathOff:end:end]
		}
		if la.asSetLen > 0 {
			end := la.asSetOff + la.asSetLen
			a.ASSet = asns[la.asSetOff:end:end]
		}
		if la.commLen > 0 {
			end := la.commOff + la.commLen
			a.Communities = comms[la.commOff:end:end]
		}
		if la.medIdx >= 0 {
			a.MED = &vals[la.medIdx]
		}
		if la.lpIdx >= 0 {
			a.LocalPref = &vals[la.lpIdx]
		}
		routes[i].Attrs = a
	}
	return routes
}

// DecodeState converts a checkpoint's serializable records into restore-ready
// slab form.
func (d *Dialect) DecodeState(cp *Checkpoint) (*State, error) {
	fail := func(err error) (*State, error) {
		return nil, fmt.Errorf("%s: restore %s: %w", d.Name, cp.Name, err)
	}
	st := &State{
		d:         d,
		sessions:  append([]node.SessionRecord(nil), cp.Sessions...),
		stats:     cp.Stats,
		engine:    cp.Engine,
		panicked:  cp.Panicked,
		lastPanic: cp.LastPanic,
		started:   cp.Started,
	}
	for i := range st.sessions {
		state, err := d.stateOf(st.sessions[i].State)
		if err != nil {
			return fail(err)
		}
		st.sessions[i].State = int(state)
	}
	addRecords := func(recs []node.RouteRecord) (span, error) {
		from := len(st.tmpl.routes)
		for _, rec := range recs {
			route, err := rec.Route()
			if err != nil {
				return span{}, err
			}
			st.tmpl.add(route)
		}
		return span{from: from, to: len(st.tmpl.routes)}, nil
	}
	addPeers := func(m node.PeerRouteMap) ([]peerSpan, error) {
		peers := make([]string, 0, len(m))
		for peer := range m {
			peers = append(peers, peer)
		}
		sort.Strings(peers)
		spans := make([]peerSpan, 0, len(peers))
		for _, peer := range peers {
			sp, err := addRecords(m[peer])
			if err != nil {
				return nil, err
			}
			spans = append(spans, peerSpan{peer: peer, span: sp})
		}
		return spans, nil
	}
	var err error
	if st.locRIB, err = addRecords(cp.LocRIB); err != nil {
		return fail(err)
	}
	if st.adjIn, err = addPeers(cp.AdjIn); err != nil {
		return fail(err)
	}
	if st.adjOut, err = addPeers(cp.AdjOut); err != nil {
		return fail(err)
	}
	for _, ev := range cp.Events {
		p, err := bgp.ParsePrefix(ev.Prefix)
		if err != nil {
			return fail(err)
		}
		st.events = append(st.events, node.RouteEvent{
			At:     time.Duration(ev.AtNanos),
			Prefix: p,
			OldVia: ev.OldVia,
			NewVia: ev.NewVia,
		})
	}
	return st, nil
}

// stateOf translates a SessionRecord.State number back to the FSM state.
func (d *Dialect) stateOf(code int) (SessionState, error) {
	for state, c := range d.StateCodes {
		if c == code {
			return SessionState(state), nil
		}
	}
	return 0, fmt.Errorf("unknown session state %d", code)
}

// Restore builds a fresh router on the image and applies the state to it,
// skipping all config cloning, validation and record parsing.
func (im *Image) Restore(st *State) (*Router, error) {
	r := im.d.newRouter()
	if err := r.applyState(im, st); err != nil {
		return nil, err
	}
	return r, nil
}

// Restore builds a fresh Router from a checkpoint. The router resumes with
// identical configuration, session states, RIB contents and counters; timers
// are re-armed lazily by the next Start or session event.
//
// Restore is the cold path: every call re-validates the configuration
// (re-parsing the dialect text when the checkpoint crossed a process
// boundary) and re-decodes every route record. Callers restoring many clones
// of the same snapshot should build an Image and a State once (ImageOf,
// DecodeState — or a checkpoint.Store for whole snapshots) and restore onto
// those instead.
func (d *Dialect) Restore(cp *Checkpoint) (*Router, error) {
	im, err := d.ImageOf(cp)
	if err != nil {
		return nil, err
	}
	st, err := d.DecodeState(cp)
	if err != nil {
		return nil, err
	}
	return im.Restore(st)
}

// ResetTo returns the router to the snapshot described by (image, state) in
// place: armed explorations and injected fault hooks are always dropped, and
// the checkpointed state — sessions, RIBs, counters, events, crash flags — is
// overwritten unless the router has not moved since it was last reset onto
// this very pair (compared by pointer: images and states are immutable), in
// which case it already holds it. This is the pooled-clone hot path:
// resetting an existing router is equivalent to (and much cheaper than)
// restoring a fresh one from the checkpoint. It implements node.Router, so
// the image and state arrive behind the neutral interfaces and must be this
// router's dialect's own.
func (r *Router) ResetTo(nim node.Image, nst node.State) error {
	im, st, err := r.d.ownHalves(r.cfg.Name, nim, nst)
	if err != nil {
		return err
	}
	r.explore = exploration{}
	r.activeMachine = nil
	r.hook = nil
	if r.Holds(im, st) {
		return nil
	}
	return r.applyState(im, st)
}

// Holds reports whether the router's checkpointed state is exactly that of
// (image, state): it was last reset onto this very pair and no entry point
// ran since. It is the optional interface the incremental checker probes; a
// router that holds the snapshot's pair is the snapshot, so whatever was
// computed on it once stands.
func (r *Router) Holds(im node.Image, st node.State) bool {
	return !r.moved && im == node.Image(r.resetIm) && st == node.State(r.resetSt)
}

// applyState overwrites the router's mutable state with a fresh
// instantiation of the decoded state. Each instantiation deep-copies every
// route, so concurrent clones sharing one State never alias mutable
// attributes; existing RIB structures are cleared and reused rather than
// reallocated. The router stays marked moved until the last field is written,
// so a failed or half-finished apply is never mistaken for a clean reset.
func (r *Router) applyState(im *Image, st *State) error {
	r.touch()
	r.bind(im.cfg)
	unknown := func(peer string) error {
		return fmt.Errorf("%s: restore %s: unknown session %s", r.d.Name, im.cfg.Name, peer)
	}
	for _, sr := range st.sessions {
		s := r.sessions[sr.Peer]
		if s == nil {
			return unknown(sr.Peer)
		}
		s.state = SessionState(sr.State)
		s.peerRouterID = bgp.RouterID(sr.PeerRouterID)
		s.downCount = sr.DownCount
		s.notificationsSent = sr.NotificationsSent
		s.notificationsReceived = sr.NotificationsReceived
	}
	flat := st.tmpl.instantiate()
	r.locRIB.Clear()
	for i := st.locRIB.from; i < st.locRIB.to; i++ {
		r.locRIB.InsertCandidate(&flat[i])
	}
	r.locRIB.ReselectAll()
	for _, ps := range st.adjIn {
		s := r.sessions[ps.peer]
		if s == nil {
			return unknown(ps.peer)
		}
		for i := ps.span.from; i < ps.span.to; i++ {
			s.adjIn.Set(&flat[i])
		}
	}
	for _, ps := range st.adjOut {
		s := r.sessions[ps.peer]
		if s == nil {
			return unknown(ps.peer)
		}
		for i := ps.span.from; i < ps.span.to; i++ {
			s.adjOut.Set(&flat[i])
		}
	}
	r.stats = st.stats
	r.engine = st.engine
	r.panicked = st.panicked
	r.lastPanic = st.lastPanic
	r.started = st.started
	if len(st.events) > 0 {
		r.events = append(r.events[:0:0], st.events...)
	} else {
		r.events = nil
	}
	r.moved, r.resetIm, r.resetSt = false, im, st
	return nil
}
