package speaker

import (
	"fmt"
	"strings"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// SessionState is the BGP finite state machine state of one neighbor session
// (RFC 4271 §8). The emulated transport has no separate TCP connection phase,
// so Connect and Active collapse into Idle/OpenSent.
type SessionState int

// Session states.
const (
	StateIdle SessionState = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String renders the state name.
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	}
	return fmt.Sprintf("SessionState(%d)", int(s))
}

// session is the per-neighbor runtime state: the FSM record and the two
// Adj-RIBs of the neighbor.
type session struct {
	peer         string
	peerAS       bgp.ASN
	state        SessionState
	peerRouterID bgp.RouterID
	importPolicy string
	exportPolicy string
	// downCount counts transitions out of Established (session resets), one
	// of the emergent-behaviour signals the paper mentions.
	downCount int
	// notificationsSent / Received count protocol errors on this session.
	notificationsSent     int
	notificationsReceived int
	adjIn                 *rib.AdjRIBIn
	adjOut                *rib.AdjRIBOut
}

func (s *session) established() bool { return s.state == StateEstablished }

// EngineStats counts handoffs between the session-handling half of the
// router and its route decision half — the imsg channel a real OpenBGPD
// pushes every route and session event through. Every router keeps them; a
// dialect whose payload carries them (Dialect.EngineStats) checkpoints and
// restores them, so there they are a deterministic function of execution
// history like everything else in a checkpoint.
type EngineStats struct {
	// ImsgsSEToRDE counts handoffs into the decision half: parsed updates,
	// session-up table dumps and session-down sweeps.
	ImsgsSEToRDE int
	// ImsgsRDEToSE counts handoffs out of it: advertisements and withdrawals
	// leaving for the wire.
	ImsgsRDEToSE int
	// RDEDecisions counts decision-process runs.
	RDEDecisions int
}

// exploration carries the armed symbolic-input request.
type exploration struct {
	machine *concolic.Machine
	from    string
	pending bool
}

// Router is the emulated BGP router. It implements node.Router, and through
// it netem.Node, so it runs both on the virtual-time emulator and on the TCP
// transport.
type Router struct {
	d *Dialect
	// preferredSite is the concolic branch-site label of the "locally most
	// preferred" choice, prefixed with the dialect's name.
	preferredSite string
	cfg           *node.Config
	sessions      map[string]*session
	locRIB        *rib.LocRIB

	explore exploration
	// activeMachine is the concolic machine of the UPDATE currently being
	// processed (nil outside symbolic handling). Injected fault hooks use it
	// so that the branch conditions of the buggy code are recorded and can be
	// negated by the explorer, exactly as instrumented BIRD code would be.
	activeMachine *concolic.Machine
	hook          node.UpdateHook

	stats     node.RouterStats
	engine    EngineStats
	events    []node.RouteEvent
	panicked  bool
	lastPanic string
	started   bool

	// moved is set by every entry point that can change checkpointed state (a
	// Start that really starts, HandleTimer, HandleMessage — hooks and armed
	// machines run inside those) and cleared when applyState completes onto
	// (resetIm, resetSt). ResetTo rewinds only a router that moved or is asked
	// for a different pair, so a pooled reset costs what the input disturbed.
	moved   bool
	resetIm *Image
	resetSt *State
	// cut is the checkpoint TakeCheckpoint last built, handed out again until
	// the router next moves: a cut costs what moved since the one before.
	cut *Checkpoint
}

// touch records that checkpointed state is about to change: the router counts
// as moved and its cached checkpoint is dropped. Every write path goes
// through it — the entry points, applyState, and CheckInvariants' counter.
func (r *Router) touch() {
	r.moved = true
	r.cut = nil
}

// Interface check: Router is a full node.Router backend.
var _ node.Router = (*Router)(nil)

// New builds a router of this dialect from the semantic configuration and
// installs the locally originated routes into the Loc-RIB.
func (d *Dialect) New(cfg *node.Config) (*Router, error) {
	im, err := d.newImage(cfg)
	if err != nil {
		return nil, err
	}
	r := d.newRouter()
	r.bind(im.cfg)
	for _, p := range r.cfg.Networks {
		r.update(nil, &rib.Route{
			Prefix: p,
			Attrs:  &bgp.PathAttributes{Origin: bgp.OriginIGP, NextHop: uint32(r.cfg.RouterID)},
			Local:  true,
		})
		r.stats.RoutesOriginated++
	}
	return r, nil
}

// newRouter allocates an empty router; bind gives it its configuration and
// sessions.
func (d *Dialect) newRouter() *Router {
	return &Router{
		d:             d,
		preferredSite: d.Name + "/route.preferred",
		sessions:      make(map[string]*session),
		locRIB:        rib.NewLocRIBFor(d.Decision),
	}
}

// bind makes the session book match the configuration: one Idle session with
// empty Adj-RIBs per configured neighbor. Existing session records and RIB
// structures are cleared and reused rather than reallocated.
func (r *Router) bind(cfg *node.Config) {
	r.cfg = cfg
	for name := range r.sessions {
		if cfg.Neighbor(name) == nil {
			delete(r.sessions, name)
		}
	}
	for _, n := range cfg.Neighbors {
		s := r.sessions[n.Name]
		if s == nil {
			s = &session{adjIn: rib.NewAdjRIBIn(), adjOut: rib.NewAdjRIBOut()}
			r.sessions[n.Name] = s
		}
		s.adjIn.Clear()
		s.adjOut.Clear()
		*s = session{
			peer:         n.Name,
			peerAS:       n.AS,
			importPolicy: n.Import,
			exportPolicy: n.Export,
			adjIn:        s.adjIn,
			adjOut:       s.adjOut,
		}
	}
}

// ID implements netem.Node.
func (r *Router) ID() netem.NodeID { return netem.NodeID(r.cfg.Name) }

// Implementation implements node.Router.
func (r *Router) Implementation() string { return r.d.Name }

// Config returns the router's configuration. Callers must not mutate it.
func (r *Router) Config() *node.Config { return r.cfg }

// LocRIB returns the router's Loc-RIB. Like AdjIn and AdjOut it is the live
// structure, handed out as a read-only view: a write through it bypasses the
// entry points ResetTo's dirty tracking relies on (see node.Router).
func (r *Router) LocRIB() *rib.LocRIB { return r.locRIB }

// AdjIn returns the Adj-RIB-In for a peer, or nil.
func (r *Router) AdjIn(peer string) *rib.AdjRIBIn {
	if s := r.sessions[peer]; s != nil {
		return s.adjIn
	}
	return nil
}

// AdjOut returns the Adj-RIB-Out for a peer, or nil.
func (r *Router) AdjOut(peer string) *rib.AdjRIBOut {
	if s := r.sessions[peer]; s != nil {
		return s.adjOut
	}
	return nil
}

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() node.RouterStats { return r.stats }

// Engine returns the decision-engine handoff counters.
func (r *Router) Engine() EngineStats { return r.engine }

// Events returns the best-route change log.
func (r *Router) Events() []node.RouteEvent { return r.events }

// Panicked reports whether the UPDATE handler crashed (directly or through an
// injected fault) and the crash reason.
func (r *Router) Panicked() (bool, string) { return r.panicked, r.lastPanic }

// Started reports whether Start has run, i.e. whether another Start would
// return at once. The out-of-process driver asks its mirror, so a started
// node's Start costs no round trip and does not count as a move.
func (r *Router) Started() bool { return r.started }

// SessionState returns the FSM state of the session with the named peer.
func (r *Router) SessionState(peer string) SessionState {
	if s := r.sessions[peer]; s != nil {
		return s.state
	}
	return StateIdle
}

// SetUpdateHook installs a (possibly fault-injecting) UPDATE hook.
func (r *Router) SetUpdateHook(h node.UpdateHook) { r.hook = h }

// ActiveMachine returns the concolic machine of the UPDATE currently being
// handled, or nil when processing is concrete. Fault hooks call it so their
// trigger conditions are recorded as negatable branch constraints.
func (r *Router) ActiveMachine() *concolic.Machine { return r.activeMachine }

// ExploreNextUpdate arms symbolic tracing: the next UPDATE received from the
// named peer is parsed under the machine, marking its NLRI and path-attribute
// fields symbolic, and the route-selection choice for its prefixes becomes a
// symbolic decision. This is how the DiCE orchestrator turns a cloned router
// into the subject of one concolic execution.
func (r *Router) ExploreNextUpdate(m *concolic.Machine, fromPeer string) {
	r.explore = exploration{machine: m, from: fromPeer, pending: true}
}

//
// netem.Node implementation: the session FSM.
//

// Start implements netem.Node: it brings every configured session up by
// sending OPEN.
func (r *Router) Start(env netem.Env) {
	if r.started {
		return
	}
	r.touch()
	r.started = true
	for _, n := range r.cfg.Neighbors {
		r.startSession(env, r.sessions[n.Name])
	}
}

func (r *Router) startSession(env netem.Env, s *session) {
	s.state = StateOpenSent
	r.sendOpen(env, s)
	env.SetTimer("retry/"+s.peer, r.cfg.ConnectRetry)
}

func (r *Router) sendOpen(env netem.Env, s *session) {
	r.send(env, s.peer, &bgp.Open{
		Version:  bgp.Version,
		AS:       r.cfg.AS,
		HoldTime: uint16(r.cfg.HoldTime / time.Second),
		RouterID: r.cfg.RouterID,
	})
	r.stats.OpensSent++
}

// HandleTimer implements netem.Node.
func (r *Router) HandleTimer(env netem.Env, name string) {
	r.touch()
	if peer, ok := strings.CutPrefix(name, "retry/"); ok {
		if s := r.sessions[peer]; s != nil && !s.established() {
			r.startSession(env, s)
		}
		return
	}
	if peer, ok := strings.CutPrefix(name, "keepalive/"); ok {
		s := r.sessions[peer]
		if s != nil && s.established() && r.cfg.KeepaliveInterval > 0 {
			r.send(env, peer, &bgp.Keepalive{})
			r.stats.KeepalivesSent++
			env.SetTimer(name, r.cfg.KeepaliveInterval)
		}
	}
}

// HandleMessage implements netem.Node. Handler crashes (including those
// caused by injected programming errors) are contained and recorded rather
// than taking the whole emulation down, mirroring a daemon that crashes and
// gets flagged by its supervisor.
func (r *Router) HandleMessage(env netem.Env, from netem.NodeID, payload []byte) {
	r.touch()
	defer func() {
		if rec := recover(); rec != nil {
			r.panicked = true
			r.lastPanic = fmt.Sprint(rec)
			r.stats.HandlerCrashes++
		}
	}()
	s := r.sessions[string(from)]
	if s == nil {
		return // message from an unconfigured neighbor: ignore
	}
	typ, body, err := bgp.ValidateHeader(payload)
	if err != nil {
		r.protocolError(env, s, err)
		return
	}
	switch typ {
	case bgp.MsgOpen:
		r.recvOpen(env, s, body)
	case bgp.MsgKeepalive:
		r.recvKeepalive(env, s)
	case bgp.MsgNotification:
		s.notificationsReceived++
		r.resetSession(env, s)
	case bgp.MsgUpdate:
		if !s.established() {
			r.protocolError(env, s, &bgp.MessageError{Code: bgp.ErrFiniteStateMachine, Reason: "UPDATE outside Established"})
			return
		}
		r.recvUpdate(env, s, body)
	}
}

// openWire rebuilds the wire header for an OPEN body so the shared decoder
// can be reused for validation.
func openWire(body []byte) []byte {
	hdr := make([]byte, bgp.HeaderLen, bgp.HeaderLen+len(body))
	for i := 0; i < bgp.MarkerLen; i++ {
		hdr[i] = 0xff
	}
	total := bgp.HeaderLen + len(body)
	hdr[16], hdr[17], hdr[18] = byte(total>>8), byte(total), byte(bgp.MsgOpen)
	return append(hdr, body...)
}

func (r *Router) recvOpen(env netem.Env, s *session, body []byte) {
	msg, err := bgp.Decode(openWire(body))
	if err != nil {
		r.protocolError(env, s, err)
		return
	}
	open := msg.(*bgp.Open)
	if open.AS != s.peerAS&0xffff && open.AS != s.peerAS {
		r.protocolError(env, s, &bgp.MessageError{Code: bgp.ErrOpenMessage, Subcode: bgp.ErrSubBadPeerAS,
			Reason: fmt.Sprintf("expected AS %d, got %d", s.peerAS, open.AS)})
		return
	}
	s.peerRouterID = open.RouterID
	switch s.state {
	case StateIdle, StateOpenSent:
		// Collision handling is collapsed: reply with our OPEN if we had not
		// sent one, then confirm.
		if s.state == StateIdle {
			r.sendOpen(env, s)
		}
		r.send(env, s.peer, &bgp.Keepalive{})
		r.stats.KeepalivesSent++
		s.state = StateOpenConfirm
	case StateOpenConfirm, StateEstablished:
		// Duplicate OPEN: ignore.
	}
}

func (r *Router) recvKeepalive(env netem.Env, s *session) {
	if s.state != StateOpenConfirm {
		return // refreshes the (disabled) hold timer; nothing to do
	}
	s.state = StateEstablished
	env.CancelTimer("retry/" + s.peer)
	if r.cfg.KeepaliveInterval > 0 {
		env.SetTimer("keepalive/"+s.peer, r.cfg.KeepaliveInterval)
	}
	// Initial table exchange: the current best of every prefix.
	r.engine.ImsgsSEToRDE++
	for _, p := range r.locRIB.Prefixes() {
		r.advertise(env, s, p, r.locRIB.Best(p))
	}
}

// protocolError sends a NOTIFICATION for the error and resets the session.
func (r *Router) protocolError(env netem.Env, s *session, err error) {
	r.stats.ParseErrors++
	if merr, ok := err.(*bgp.MessageError); ok {
		r.send(env, s.peer, merr.Notification())
	} else {
		r.send(env, s.peer, &bgp.Notification{Code: bgp.ErrCease})
	}
	s.notificationsSent++
	r.stats.NotificationsSent++
	r.resetSession(env, s)
}

// resetSession tears down the session: all routes learned from the peer are
// withdrawn (the "local session reset" whose system-wide consequences the
// paper calls out) and the session restarts after the retry timer.
func (r *Router) resetSession(env netem.Env, s *session) {
	if s.established() {
		r.stats.SessionResets++
	}
	s.state = StateIdle
	s.downCount++
	r.engine.ImsgsSEToRDE++
	for _, route := range s.adjIn.Routes() {
		s.adjIn.Remove(route.Prefix)
		r.bestChanged(env, r.withdraw(nil, route.Prefix, s.peer), s.peer)
	}
	s.adjOut.Clear()
	env.SetTimer("retry/"+s.peer, r.cfg.ConnectRetry)
}

//
// UPDATE processing — the state-changing code DiCE focuses on.
//

// update and withdraw are the decision-process entry points; every Loc-RIB
// mutation counts as one decision run.
func (r *Router) update(m *concolic.Machine, route *rib.Route) rib.BestChange {
	r.engine.RDEDecisions++
	return r.locRIB.Update(m, route)
}

func (r *Router) withdraw(m *concolic.Machine, p bgp.Prefix, from string) rib.BestChange {
	r.engine.RDEDecisions++
	return r.locRIB.Withdraw(m, p, from)
}

func (r *Router) recvUpdate(env netem.Env, s *session, body []byte) {
	r.stats.UpdatesReceived++

	var m *concolic.Machine
	if r.explore.pending && r.explore.from == s.peer {
		m = r.explore.machine
		r.explore.pending = false
		r.stats.ExploredSymbolic++
	}
	r.activeMachine = m
	defer func() { r.activeMachine = nil }()

	u, err := bgp.ParseUpdateSym(m, "update", body)
	if err != nil {
		r.protocolError(env, s, err)
		return
	}

	if r.hook != nil {
		herr := r.hook(r, s.peer, u)
		// A checkpoint the hook took is of a half-handled UPDATE: never the
		// one to hand out again.
		r.cut = nil
		if herr != nil {
			// The injected programming error "crashed" the handler.
			r.panicked = true
			r.lastPanic = herr.Error()
			r.stats.HandlerCrashes++
			r.stats.UpdatesHookDropped++
			return
		}
	}

	r.engine.ImsgsSEToRDE++
	for _, p := range u.Withdrawn {
		if s.adjIn.Remove(p) {
			r.bestChanged(env, r.withdraw(m, p, s.peer), s.peer)
		}
	}
	r.applyAnnouncements(env, s, m, u)
}

func (r *Router) applyAnnouncements(env netem.Env, s *session, m *concolic.Machine, u *bgp.Update) {
	if len(u.NLRI) == 0 || u.Attrs == nil {
		return
	}
	for i, p := range u.NLRI {
		attrs := u.Attrs.Clone()

		// eBGP loop prevention: a path that already contains our AS is
		// ignored.
		if attrs.HasASLoop(r.cfg.AS) {
			r.stats.ASLoopsIgnored++
			continue
		}

		route := &rib.Route{
			Prefix:       p,
			Attrs:        attrs,
			Peer:         s.peer,
			PeerAS:       s.peerAS,
			PeerRouterID: s.peerRouterID,
			EBGP:         s.peerAS != r.cfg.AS,
		}
		if m != nil && u.Sym != nil {
			sym := rib.SymFromUpdate(u.Sym)
			if i < len(u.Sym.NLRI) {
				sym.PrefixLen = u.Sym.NLRI[i].Len
				sym.PrefixAddr = u.Sym.NLRI[i].Addr
				sym.HasPrefix = true
			}
			route.Sym = sym
		}

		// LOCAL_PREF is an iBGP attribute: on eBGP sessions the received
		// value is discarded and import policy assigns a fresh one. The
		// symbolic shadow must be scrubbed with it, or exploration reasons
		// about a LOCAL_PREF the router concretely ignores and derives
		// detections no concrete replay can reproduce.
		if route.EBGP {
			route.Attrs.LocalPref = nil
			if route.Sym != nil {
				route.Sym.HasLocalPref = false
			}
		}

		// Import policy (interpreted; constraints recorded when tracing).
		if r.cfg.Policies[s.importPolicy].Apply(m, route) == policy.ResultReject {
			r.stats.ImportRejected++
			// Treat-as-withdraw for any previously accepted route.
			if s.adjIn.Remove(p) {
				r.bestChanged(env, r.withdraw(m, p, s.peer), s.peer)
			}
			continue
		}

		// The paper treats "is this route the locally most preferred one" as
		// a symbolic condition. Under exploration the choice byte lets the
		// explorer force the route to lose the selection, exercising the
		// other outcome of the decision process (as a configuration change
		// demoting the route would).
		if m != nil {
			preferred := m.Choice("preferred/"+p.String(), true)
			if !m.Branch(r.preferredSite, preferred) {
				route.Attrs.SetLocalPref(0)
				if route.Sym != nil {
					route.Sym.HasLocalPref = false
				}
			}
		}

		s.adjIn.Set(route.Clone())
		r.bestChanged(env, r.update(m, route), s.peer)
	}
}

// bestChanged reacts to a best-route change: it records the event and
// re-advertises (or withdraws) the prefix to every established neighbor
// according to export policy.
func (r *Router) bestChanged(env netem.Env, change rib.BestChange, learnedFrom string) {
	if !change.Changed {
		return
	}
	r.stats.BestChanges++
	r.events = append(r.events, node.RouteEvent{
		At:     env.Now(),
		Prefix: change.Prefix,
		OldVia: viaOf(change.Old),
		NewVia: viaOf(change.New),
	})
	for _, n := range r.cfg.Neighbors {
		s := r.sessions[n.Name]
		if !s.established() || n.Name == learnedFrom {
			continue // never echo back to the peer the change came from
		}
		r.advertise(env, s, change.Prefix, change.New)
	}
}

// advertise sends the export-policy view of the best route for one prefix to
// one neighbor, or a withdrawal when the route is gone or filtered.
func (r *Router) advertise(env netem.Env, s *session, p bgp.Prefix, best *rib.Route) {
	r.engine.ImsgsRDEToSE++
	withdraw := func() {
		if s.adjOut.Remove(p) {
			r.send(env, s.peer, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
			r.stats.WithdrawalsSent++
			r.stats.UpdatesSent++
		}
	}
	// No route, or a route that must not be advertised back to its source.
	if best == nil || best.Peer == s.peer {
		withdraw()
		return
	}
	export := best.Clone()
	if r.cfg.Policies[s.exportPolicy].Apply(nil, export) == policy.ResultReject {
		r.stats.ExportRejected++
		withdraw()
		return
	}
	attrs := export.Attrs
	attrs.PrependAS(r.cfg.AS, 1)
	attrs.NextHop = uint32(r.cfg.RouterID)
	// LOCAL_PREF is not carried on eBGP sessions.
	if s.peerAS != r.cfg.AS {
		attrs.LocalPref = nil
	}
	s.adjOut.Set(&rib.Route{Prefix: p, Attrs: attrs, Peer: s.peer})
	r.send(env, s.peer, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{p}})
	r.stats.UpdatesSent++
}

func (r *Router) send(env netem.Env, to string, msg bgp.Message) {
	env.Send(netem.NodeID(to), bgp.Encode(msg))
}

func viaOf(route *rib.Route) string {
	switch {
	case route == nil:
		return ""
	case route.Local:
		return "local"
	default:
		return route.Peer
	}
}

// CheckInvariants runs the router's local state checks and returns a list of
// violations, sessions in configuration order. These are the checks whose
// boolean verdicts cross domain boundaries through the narrow
// information-sharing interface; the underlying state stays private to the
// node.
func (r *Router) CheckInvariants() []string {
	var violations []string
	if r.panicked {
		violations = append(violations, fmt.Sprintf("handler crashed: %s", r.lastPanic))
	}
	for _, best := range r.locRIB.BestRoutes() {
		if best.Attrs == nil {
			violations = append(violations, fmt.Sprintf("best route for %s has nil attributes", best.Prefix))
			continue
		}
		if !best.Local && best.Attrs.HasASLoop(r.cfg.AS) {
			violations = append(violations, fmt.Sprintf("best route for %s contains own AS %d in path", best.Prefix, r.cfg.AS))
		}
		if !best.Prefix.Valid() {
			violations = append(violations, fmt.Sprintf("best route for invalid prefix %s", best.Prefix))
		}
		if !best.Local {
			if in := r.AdjIn(best.Peer); in == nil || in.Get(best.Prefix) == nil {
				violations = append(violations, fmt.Sprintf("best route for %s via %s missing from Adj-RIB-In", best.Prefix, best.Peer))
			}
		}
	}
	for _, n := range r.cfg.Neighbors {
		if s := r.sessions[n.Name]; !s.established() && s.adjOut.Len() > 0 {
			violations = append(violations, fmt.Sprintf("Adj-RIB-Out for down session %s is not empty", n.Name))
		}
	}
	// The counter is checkpointed state written from a read path: a change
	// counts as a move, or a clean pooled router would carry it into the next
	// lease where a cold clone has the snapshot's value.
	if n := len(violations); r.stats.InvariantFailures != n {
		r.touch()
		r.stats.InvariantFailures = n
	}
	return violations
}
