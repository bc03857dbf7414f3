// Package cluster assembles a runnable emulated deployment from a topology:
// it generates per-router configurations (including Gao–Rexford import/export
// policies derived from the business relationships on the links), wires the
// routers into a virtual-time network, and provides the snapshot / restore
// operations the DiCE orchestrator uses to obtain isolated shadow copies of
// the running system.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"

	// Router backends register themselves with the node registry; importing
	// them here makes every deployment built through this package able to
	// resolve the implementations a topology names.
	_ "github.com/dice-project/dice/internal/bird"
	_ "github.com/dice-project/dice/internal/frr"
	_ "github.com/dice-project/dice/internal/node/procdriver"
	_ "github.com/dice-project/dice/internal/obgpd"
)

// Relationship tag communities attached by the generated import policies, in
// the style operators use to encode Gao–Rexford relationships.
var (
	// TagCustomer marks routes learned from a customer.
	TagCustomer = bgp.NewCommunity(65535, 1)
	// TagPeer marks routes learned from a settlement-free peer.
	TagPeer = bgp.NewCommunity(65535, 2)
	// TagProvider marks routes learned from a provider.
	TagProvider = bgp.NewCommunity(65535, 3)
)

// Local preference values assigned by relationship (prefer customer routes,
// then peer routes, then provider routes).
const (
	LocalPrefCustomer = 200
	LocalPrefPeer     = 100
	LocalPrefProvider = 50
)

// Options configure cluster construction.
type Options struct {
	// Seed drives link jitter/loss and keeps runs reproducible.
	Seed int64
	// GaoRexford generates relationship-based import/export policies from
	// the topology's link relations. When false every session accepts and
	// exports everything.
	GaoRexford bool
	// KeepaliveInterval enables periodic keepalives on every router.
	KeepaliveInterval time.Duration
	// Trace receives emulator log lines.
	Trace func(string)
	// MaxEvents bounds each emulator run.
	MaxEvents int
	// ConfigOverride, when non-nil, is applied to each generated router
	// configuration before the router is built. Fault injection uses it to
	// plant operator mistakes and policy conflicts. The semantic
	// configuration is implementation-neutral, so one override applies to
	// every backend.
	ConfigOverride func(cfg *node.Config)
}

// Cluster is a running emulated deployment.
type Cluster struct {
	Topo    *topology.Topology
	Net     *netem.Network
	Routers map[string]node.Router
	opts    Options
	// parent is the cluster a Subview was cut from (nil for a whole cluster).
	parent *Cluster
}

// relationOf classifies the neighbor relationship from the point of view of
// node name: "customer" (the neighbor is our customer), "peer", or
// "provider" (the neighbor is our provider).
func relationOf(l topology.Link, name string) string {
	if l.Rel == topology.RelPeer {
		return "peer"
	}
	// RelCustomer: A is the customer of B.
	if l.A == name {
		return "provider" // the other endpoint is our provider
	}
	return "customer"
}

// gaoRexfordPolicies returns the five canonical relationship policies.
func gaoRexfordPolicies() map[string]*policy.Policy {
	anyPrefix := policy.MatchPrefix{Prefix: bgp.Prefix{Addr: 0, Len: 0}, MaxLen: 32}
	importFor := func(name string, pref uint32, tag bgp.Community) *policy.Policy {
		return &policy.Policy{
			Name:    name,
			Default: policy.ResultAccept,
			Statements: []*policy.Statement{{
				Conds: []policy.Condition{anyPrefix},
				Actions: []policy.Action{
					// Relationship tags are locally significant: strip
					// whatever the neighbor attached before tagging the
					// route with the relationship of this session, exactly
					// as operators scrub informational communities at the
					// edge. Without this, stale tags leak valley routes.
					policy.ActionClearCommunities{},
					policy.ActionSetLocalPref{Value: pref},
					policy.ActionAddCommunity{Community: tag},
					policy.ActionAccept{},
				},
			}},
		}
	}
	exportRestricted := &policy.Policy{
		Name:    "GR-EXPORT-RESTRICTED",
		Default: policy.ResultReject,
		Statements: []*policy.Statement{
			{
				Conds:   []policy.Condition{policy.MatchCommunity{Community: TagCustomer}},
				Actions: []policy.Action{policy.ActionAccept{}},
			},
			{
				Conds:   []policy.Condition{policy.MatchASPathLen{Op: "=", N: 0}},
				Actions: []policy.Action{policy.ActionAccept{}},
			},
		},
	}
	return map[string]*policy.Policy{
		"GR-IMPORT-CUSTOMER":   importFor("GR-IMPORT-CUSTOMER", LocalPrefCustomer, TagCustomer),
		"GR-IMPORT-PEER":       importFor("GR-IMPORT-PEER", LocalPrefPeer, TagPeer),
		"GR-IMPORT-PROVIDER":   importFor("GR-IMPORT-PROVIDER", LocalPrefProvider, TagProvider),
		"GR-EXPORT-CUSTOMER":   policy.AcceptAll("GR-EXPORT-CUSTOMER"),
		"GR-EXPORT-RESTRICTED": exportRestricted,
	}
}

// ConfigFor builds the router configuration for one topology node under the
// given options (without building the router). Exported so fault injectors
// and tests can inspect or modify configurations.
func ConfigFor(topo *topology.Topology, name string, opts Options) (*node.Config, error) {
	tn := topo.Node(name)
	if tn == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", name)
	}
	cfg := &node.Config{
		Name:              tn.Name,
		AS:                tn.AS,
		RouterID:          tn.RouterID,
		Networks:          append([]bgp.Prefix(nil), tn.Prefixes...),
		KeepaliveInterval: opts.KeepaliveInterval,
		Policies:          map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
	}
	if opts.GaoRexford {
		for k, v := range gaoRexfordPolicies() {
			cfg.Policies[k] = v
		}
	}
	for _, l := range topo.LinksOf(name) {
		peerName := l.B
		if l.B == name {
			peerName = l.A
		}
		peer := topo.Node(peerName)
		nc := node.NeighborConfig{Name: peer.Name, AS: peer.AS, Import: "ALL", Export: "ALL"}
		if opts.GaoRexford {
			switch relationOf(l, name) {
			case "customer":
				nc.Import = "GR-IMPORT-CUSTOMER"
				nc.Export = "GR-EXPORT-CUSTOMER"
			case "peer":
				nc.Import = "GR-IMPORT-PEER"
				nc.Export = "GR-EXPORT-RESTRICTED"
			case "provider":
				nc.Import = "GR-IMPORT-PROVIDER"
				nc.Export = "GR-EXPORT-RESTRICTED"
			}
		}
		cfg.Neighbors = append(cfg.Neighbors, nc)
	}
	if opts.ConfigOverride != nil {
		opts.ConfigOverride(cfg)
	}
	return cfg, nil
}

// Build constructs routers for every topology node and wires them into a
// virtual-time network. The network is not started; call Converge or Run.
func Build(topo *topology.Topology, opts Options) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Topo:    topo,
		Net:     netem.New(netem.Options{Seed: opts.Seed, Trace: opts.Trace, MaxEvents: opts.MaxEvents}),
		Routers: make(map[string]node.Router),
		opts:    opts,
	}
	for _, tn := range topo.Nodes {
		cfg, err := ConfigFor(topo, tn.Name, opts)
		if err != nil {
			return nil, err
		}
		r, err := node.BuildRouter(tn.Impl, cfg)
		if err != nil {
			return nil, err
		}
		c.Routers[tn.Name] = r
		c.Net.AddNode(r)
	}
	for _, l := range topo.Links {
		c.Net.Connect(netem.NodeID(l.A), netem.NodeID(l.B), netem.LinkConfig{
			Delay:  l.Delay,
			Jitter: l.Jitter,
			Loss:   l.Loss,
		})
	}
	return c, nil
}

// MustBuild is Build for tests and examples with static topologies.
func MustBuild(topo *topology.Topology, opts Options) *Cluster {
	c, err := Build(topo, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Router returns the named router, or nil.
func (c *Cluster) Router(name string) node.Router { return c.Routers[name] }

// Implementations returns the distinct router implementations deployed in
// the cluster, sorted. A heterogeneous deployment reports more than one. A
// Subview answers for the deployment it was cut from: which implementations
// a federation mixes is public, and a one-router domain would otherwise look
// homogeneous to the differential check.
func (c *Cluster) Implementations() []string {
	if c.parent != nil {
		return c.parent.Implementations()
	}
	seen := make(map[string]bool)
	for _, r := range c.Routers {
		seen[r.Implementation()] = true
	}
	out := make([]string, 0, len(seen))
	for impl := range seen {
		out = append(out, impl)
	}
	sort.Strings(out)
	return out
}

// Unhealthy reports the first router whose driver can no longer faithfully
// run it — an out-of-process node whose subprocess crashed, stalled, or broke
// protocol. In-process routers are always healthy; drivers opt in by
// implementing `Unhealthy() error`. The campaign layer checks this after
// every execution so a dead driver becomes a unit error instead of a silently
// frozen node, and the clone pool discards unhealthy clones at release.
func (c *Cluster) Unhealthy() error {
	for _, name := range c.RouterNames() {
		if probe, ok := c.Routers[name].(interface{ Unhealthy() error }); ok {
			if err := probe.Unhealthy(); err != nil {
				return fmt.Errorf("cluster: node %s: %w", name, err)
			}
		}
	}
	return nil
}

// Converge runs the emulation until quiescence (routing converged) and
// returns the number of events processed.
func (c *Cluster) Converge() int {
	return c.Net.RunQuiescent(c.opts.MaxEvents)
}

// Run advances the emulation up to the given virtual time.
func (c *Cluster) Run(until time.Duration) int {
	return c.Net.Run(until)
}

// Snapshot takes a consistent cut of the cluster: every router's lightweight
// checkpoint — the one it last handed out, if it has not moved since — plus
// the in-flight messages.
func (c *Cluster) Snapshot() *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		At:         c.Net.Now(),
		Nodes:      make(map[string]node.Checkpoint, len(c.Routers)),
		InFlight:   c.Net.InFlight(),
		Consistent: true,
	}
	for name, r := range c.Routers {
		s.Nodes[name] = r.TakeCheckpoint()
	}
	return s
}

// FromSnapshot builds a shadow cluster — an isolated copy of the system as of
// the snapshot — over the same topology. Router states are restored from
// their checkpoints and the captured in-flight messages are re-injected so
// the shadow copy evolves exactly as the deployed system would have.
//
// FromSnapshot is the cold rebuild path: every call re-validates configs and
// re-decodes every route record of every node. Code that clones the same
// snapshot repeatedly should build a checkpoint.Store once and use FromStore
// (or a ClonePool) instead.
func FromSnapshot(topo *topology.Topology, snap *checkpoint.Snapshot, opts Options) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Topo:    topo,
		Net:     netem.New(netem.Options{Seed: opts.Seed, Trace: opts.Trace, MaxEvents: opts.MaxEvents}),
		Routers: make(map[string]node.Router),
		opts:    opts,
	}
	for _, tn := range topo.Nodes {
		cp, ok := snap.Nodes[tn.Name]
		if !ok {
			return nil, fmt.Errorf("cluster: snapshot missing node %s", tn.Name)
		}
		r, err := node.RestoreRouter(cp)
		if err != nil {
			return nil, err
		}
		c.Routers[tn.Name] = r
		c.Net.AddNode(r)
	}
	for _, l := range topo.Links {
		c.Net.Connect(netem.NodeID(l.A), netem.NodeID(l.B), netem.LinkConfig{
			Delay:  l.Delay,
			Jitter: l.Jitter,
			Loss:   l.Loss,
		})
	}
	// Replay channel state so the cut stays consistent.
	injectInFlight(c, snap)
	return c, nil
}

// InjectUpdate delivers a raw BGP UPDATE to a router as if it had been sent
// by the named peer. The DiCE orchestrator uses it to subject a node in a
// shadow cluster to an explored input.
func (c *Cluster) InjectUpdate(fromPeer, to string, update *bgp.Update) {
	c.Net.InjectMessage(netem.NodeID(fromPeer), netem.NodeID(to), bgp.Encode(update), 0)
}

// InjectRaw delivers a raw wire message (possibly malformed) to a router.
func (c *Cluster) InjectRaw(fromPeer, to string, wire []byte) {
	c.Net.InjectMessage(netem.NodeID(fromPeer), netem.NodeID(to), wire, 0)
}

// RouterNames returns the router names in topology order.
func (c *Cluster) RouterNames() []string { return c.Topo.NodeNames() }

// Subview returns a read-only, domain-scoped view of the cluster restricted
// to the given sub-topology (usually built with Topology.Induced): Router,
// RouterNames and property checks see only that subset of nodes. The view
// shares router instances and the transport with the parent cluster — it is
// a visibility boundary, not a copy — so it must not be run or mutated.
// Federated coordinators evaluate properties over their domain's subview.
func (c *Cluster) Subview(sub *topology.Topology) *Cluster {
	routers := make(map[string]node.Router, len(sub.Nodes))
	for _, n := range sub.Nodes {
		if r, ok := c.Routers[n.Name]; ok {
			routers[n.Name] = r
		}
	}
	return &Cluster{Topo: sub, Net: c.Net, Routers: routers, opts: c.opts, parent: c}
}

// TotalBestChanges sums the best-route changes across all routers, a proxy
// for control-plane churn used by the overhead experiment.
func (c *Cluster) TotalBestChanges() int {
	total := 0
	for _, r := range c.Routers {
		total += r.Stats().BestChanges
	}
	return total
}
