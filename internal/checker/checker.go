// Package checker implements DiCE's property checking: the definitions of
// desired system behaviour, the local per-node checks, and the narrow
// information-sharing interface through which federated nodes exchange check
// results without exposing their private state and configuration.
//
// Each Property inspects a cluster (usually a shadow clone produced from a
// snapshot and subjected to an explored input) and produces a Result holding:
//
//   - Verdicts: the per-node pass/fail outcomes that cross administrative
//     boundaries. Their serialized size is the property's "disclosure" —
//     the experiments compare it against shipping full node state.
//   - Violations: concrete findings, each attributed to one of the paper's
//     three fault classes (operator mistake, policy conflict, programming
//     error).
package checker

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// FaultClass is one of the paper's three fault classes, extended with the
// cross-implementation divergence class heterogeneous deployments add.
type FaultClass int

// Fault classes.
const (
	ClassUnknown FaultClass = iota
	ClassOperatorMistake
	ClassPolicyConflict
	ClassProgrammingError
	// ClassImplDivergence marks findings where two conformant router
	// implementations legally disagree — not a bug in either node, but an
	// emergent hazard of a heterogeneous federation (route selection that
	// depends on which vendor a node runs).
	ClassImplDivergence
)

// String renders the fault class.
func (c FaultClass) String() string {
	switch c {
	case ClassOperatorMistake:
		return "operator-mistake"
	case ClassPolicyConflict:
		return "policy-conflict"
	case ClassProgrammingError:
		return "programming-error"
	case ClassImplDivergence:
		return "implementation-divergence"
	}
	return "unknown"
}

// Ownership maps a prefix to the AS authorized to originate it — the public
// registry (in the spirit of an IRR/RPKI database) that origin validation
// checks against. It is public data, not private node state.
type Ownership map[bgp.Prefix]bgp.ASN

// OwnershipFromTopology derives the registry from the prefixes each topology
// node declares.
func OwnershipFromTopology(topo *topology.Topology) Ownership {
	out := make(Ownership)
	for _, n := range topo.Nodes {
		for _, p := range n.Prefixes {
			out[p] = n.AS
		}
	}
	return out
}

// Verdict is the unit of information a node shares with the checking plane:
// which property it checked, whether it holds locally, and a short detail
// string. No RIB contents or configuration leave the node.
type Verdict struct {
	Node     string
	Property string
	OK       bool
	Detail   string
}

// size approximates the serialized size of the verdict in bytes, used for
// disclosure accounting.
func (v Verdict) size() int {
	return len(v.Node) + len(v.Property) + len(v.Detail) + 1
}

// Violation is a concrete property violation.
type Violation struct {
	Property string
	Class    FaultClass
	Node     string
	Prefix   bgp.Prefix
	HasPfx   bool
	Detail   string
}

// String renders the violation compactly.
func (v Violation) String() string {
	if v.HasPfx {
		return fmt.Sprintf("[%s/%s] %s: %s (%s)", v.Class, v.Property, v.Node, v.Detail, v.Prefix)
	}
	return fmt.Sprintf("[%s/%s] %s: %s", v.Class, v.Property, v.Node, v.Detail)
}

// Key identifies the violation for deduplication across explored inputs. Every
// violation of every input is keyed, so it is built without fmt.
func (v Violation) Key() string {
	return v.Property + "|" + v.Node + "|" + v.Prefix.String() + "|" + strconv.FormatBool(v.HasPfx)
}

// Result is the outcome of checking one property over one system state.
type Result struct {
	Property   string
	Violations []Violation
	Verdicts   []Verdict
	// DisclosedBytes is the number of bytes of node-local information that
	// crossed administrative boundaries to evaluate the property.
	DisclosedBytes int
}

// OK reports whether the property held.
func (r Result) OK() bool { return len(r.Violations) == 0 }

// nodeResult is what one router contributes to a node-local property: its
// violations and the verdict it shares.
type nodeResult struct {
	violations []Violation
	verdict    Verdict
}

// add appends one router's contribution, charging its verdict.
func (r *Result) add(n nodeResult) {
	r.Violations = append(r.Violations, n.violations...)
	r.Verdicts = append(r.Verdicts, n.verdict)
	r.DisclosedBytes += n.verdict.size()
}

// nodeLocal is a Property each router decides from its own state. Check is
// the loop over forNode, so an Evaluator can reuse the outcome of a router
// that still holds the snapshot it was computed on.
type nodeLocal interface {
	Property
	// forNode returns the per-router evaluation, with whatever the property
	// derives from the deployment rather than from router state resolved once.
	forNode(c *cluster.Cluster) func(name string, r node.Router) nodeResult
}

// checkNodes is Check for every node-local property.
func checkNodes(p nodeLocal, c *cluster.Cluster) Result {
	res := Result{Property: p.Name()}
	check := p.forNode(c)
	for _, name := range c.RouterNames() {
		res.add(check(name, c.Router(name)))
	}
	return res
}

// Property is a checkable system property.
type Property interface {
	// Name identifies the property in reports.
	Name() string
	// Check evaluates the property over the cluster.
	Check(c *cluster.Cluster) Result
}

// Report aggregates the results of checking several properties.
type Report struct {
	Results []Result
}

// CheckAll evaluates every property.
func CheckAll(c *cluster.Cluster, props []Property) *Report {
	rep := &Report{}
	for _, p := range props {
		rep.Results = append(rep.Results, p.Check(c))
	}
	return rep
}

// Violations returns all violations across properties.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, res := range r.Results {
		out = append(out, res.Violations...)
	}
	return out
}

// DisclosedBytes sums the disclosure across properties.
func (r *Report) DisclosedBytes() int {
	total := 0
	for _, res := range r.Results {
		total += res.DisclosedBytes
	}
	return total
}

// OK reports whether every property held.
func (r *Report) OK() bool { return len(r.Violations()) == 0 }

// DefaultProperties returns the standard property set used by the DiCE
// experiments for a given topology: origin validity, reachability, forwarding
// loop freedom, convergence, and node health.
func DefaultProperties(topo *topology.Topology) []Property {
	own := OwnershipFromTopology(topo)
	return []Property{
		OriginValidity{Ownership: own},
		Reachability{Ownership: own},
		LoopFreedom{},
		Convergence{MaxChangesPerPrefix: 8},
		NodeHealth{},
	}
}

// PropertiesByName constructs standard properties from their registry names
// ("origin-validity", "reachability", "loop-freedom", "convergence",
// "node-health"), configured exactly as DefaultProperties configures them.
// Distributed execution uses it to rebuild a campaign's property set on the
// agent side of the wire: property values carry funcs and derived maps that
// cannot be serialized, but the standard set is reconstructible from names
// plus the topology alone.
func PropertiesByName(topo *topology.Topology, names ...string) ([]Property, error) {
	own := OwnershipFromTopology(topo)
	out := make([]Property, 0, len(names))
	for _, name := range names {
		switch name {
		case "origin-validity":
			out = append(out, OriginValidity{Ownership: own})
		case "reachability":
			out = append(out, Reachability{Ownership: own})
		case "loop-freedom":
			out = append(out, LoopFreedom{})
		case "convergence":
			out = append(out, Convergence{MaxChangesPerPrefix: 8})
		case "node-health":
			out = append(out, NodeHealth{})
		default:
			return nil, fmt.Errorf("checker: unknown property %q", name)
		}
	}
	return out, nil
}

// FullStateDisclosure computes the number of bytes that would cross domain
// boundaries if nodes shared their entire checkpoints with the checking plane
// instead of verdicts — the baseline the narrow interface is compared against
// in experiment E7: the sum of the per-node canonical encodings of one cut.
func FullStateDisclosure(c *cluster.Cluster) (int, error) {
	sizes, err := checkpoint.Measure(c.Snapshot())
	return sizes.NodeBytes(), err
}

//
// OriginValidity: no AS announces a prefix it does not own (prefix hijacking,
// typically the result of an operator mistake such as a missing import
// filter or a mis-origination).
//

// OriginValidity checks that the originating AS of every selected route is
// the registered owner of the prefix.
type OriginValidity struct {
	Ownership Ownership
}

// Name implements Property.
func (OriginValidity) Name() string { return "origin-validity" }

// Check implements Property. Each node checks its own Loc-RIB against the
// public registry and shares only verdicts.
func (p OriginValidity) Check(c *cluster.Cluster) Result { return checkNodes(p, c) }

func (p OriginValidity) forNode(*cluster.Cluster) func(string, node.Router) nodeResult {
	return func(name string, r node.Router) nodeResult {
		out := nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: true}}
		for _, best := range r.LocRIB().BestRoutes() {
			owner, registered := p.Ownership[best.Prefix]
			if !registered {
				continue // unregistered prefix: out of scope for this property
			}
			originAS := best.Attrs.OriginAS()
			if best.Local {
				originAS = r.Config().AS
			}
			if originAS != owner {
				out.verdict.OK, out.verdict.Detail = false, "hijacked prefix selected"
				out.violations = append(out.violations, Violation{
					Property: p.Name(),
					Class:    ClassOperatorMistake,
					Node:     name,
					Prefix:   best.Prefix,
					HasPfx:   true,
					Detail:   fmt.Sprintf("prefix owned by AS %d is originated by AS %d", owner, originAS),
				})
			}
		}
		return out
	}
}

//
// Reachability: every registered prefix has a selected route at every node
// (no blackholes after convergence).
//

// Reachability checks that every node has a route to every registered prefix.
type Reachability struct {
	Ownership Ownership
}

// Name implements Property.
func (Reachability) Name() string { return "reachability" }

// Check implements Property.
func (p Reachability) Check(c *cluster.Cluster) Result { return checkNodes(p, c) }

func (p Reachability) forNode(*cluster.Cluster) func(string, node.Router) nodeResult {
	prefixes := make([]bgp.Prefix, 0, len(p.Ownership))
	for pfx := range p.Ownership {
		prefixes = append(prefixes, pfx)
	}
	bgp.SortPrefixes(prefixes)
	return func(name string, r node.Router) nodeResult {
		out := nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: true}}
		for _, pfx := range prefixes {
			if r.LocRIB().Best(pfx) == nil {
				out.verdict.OK = false
				out.violations = append(out.violations, Violation{
					Property: p.Name(),
					Class:    ClassOperatorMistake,
					Node:     name,
					Prefix:   pfx,
					HasPfx:   true,
					Detail:   "no route to registered prefix (blackhole)",
				})
			}
		}
		return out
	}
}

//
// LoopFreedom: following best-route next hops never cycles.
//

// LoopFreedom checks that the forwarding graph induced by selected routes is
// acyclic for every prefix. Nodes disclose only a minimized projection of
// their state — (prefix, next-hop node) pairs — not attributes, policies or
// alternative routes. It is the one default property that needs a cross-node
// view, so it implements ProjectionProperty: federated campaigns assemble
// the projection from the per-domain summaries and evaluate it at the
// exploring domain instead of checking each domain's subgraph in isolation
// (which would miss loops that span domains).
type LoopFreedom struct{}

// Name implements Property.
func (LoopFreedom) Name() string { return "loop-freedom" }

// ForwardingEdge is one entry of the minimized forwarding projection a node
// discloses for loop checking: for a prefix, the neighbor its selected route
// forwards to ("" when the node originates the prefix). No attributes,
// preferences or alternative routes are included.
type ForwardingEdge struct {
	Node    string
	Prefix  bgp.Prefix
	NextHop string
}

// size is the edge's disclosure charge: node name, 5 prefix bytes, neighbor
// name (the same 5+len convention the centralized accounting uses).
func (e ForwardingEdge) size() int { return len(e.Node) + 5 + len(e.NextHop) }

// ProjectionProperty is a Property that cannot be evaluated per-node or
// per-domain: it needs a cross-node view assembled from minimized per-node
// projections. Federated campaigns route such properties through the
// summary exchange — every domain ships Projection of its own view, and the
// exploring domain evaluates CheckProjection over the union. Summaries
// carry a single projection, so a federated campaign checks at most one
// distinct projection-based property and rejects property sets with more.
type ProjectionProperty interface {
	Property
	// Projection extracts the minimized projection of the (possibly
	// domain-scoped) cluster view.
	Projection(c *cluster.Cluster) []ForwardingEdge
	// CheckProjection evaluates the property over an assembled projection
	// covering the given node set.
	CheckProjection(edges []ForwardingEdge, nodes []string) Result
}

// appendEdges appends one router's forwarding projection.
func appendEdges(edges []ForwardingEdge, name string, r node.Router) []ForwardingEdge {
	for _, best := range r.LocRIB().BestRoutes() {
		e := ForwardingEdge{Node: name, Prefix: best.Prefix}
		if !best.Local {
			e.NextHop = best.Peer
		}
		edges = append(edges, e)
	}
	return edges
}

// Projection implements ProjectionProperty.
func (LoopFreedom) Projection(c *cluster.Cluster) []ForwardingEdge {
	var edges []ForwardingEdge
	for _, name := range c.RouterNames() {
		edges = appendEdges(edges, name, c.Router(name))
	}
	return edges
}

// Check implements Property: project the whole cluster, then evaluate. The
// per-edge disclosure charge stays on this path (prefix + neighbor name per
// edge, as before); CheckProjection charges only its verdicts, since in a
// federated run the edges are charged by the summary bus instead.
func (p LoopFreedom) Check(c *cluster.Cluster) Result {
	edges := p.Projection(c)
	res := p.CheckProjection(edges, c.RouterNames())
	for _, e := range edges {
		res.DisclosedBytes += 5 + len(e.NextHop)
	}
	return res
}

// CheckProjection implements ProjectionProperty: every start whose walk along
// the next hops of a prefix reaches a cycle is a violation, in (sorted
// prefix, nodes) order.
func (p LoopFreedom) CheckProjection(edges []ForwardingEdge, nodes []string) Result {
	return newLoopGraph(edges, nodes).check(p, nil)
}

// noHop ends a walk: the node originates the prefix, has no route for it, or
// forwards to a name that discloses no edges.
const noHop = -1

// loopGraph is a forwarding projection in index form — a column per node, a
// row of next-hop columns per prefix, so a walk reads slices, not maps —
// together with the starts that loop in it.
type loopGraph struct {
	nodes    []string             // the starts, in report order
	starts   []int32              // column of each start
	columns  map[string]int32     // every start and every edge source
	prefixes []bgp.Prefix         // sorted; prefixes[i] is row i
	rows     map[bgp.Prefix]int32 // the inverse of prefixes
	next     []int32              // len(prefixes) × len(columns), noHop where the walk ends
	loops    [][]int32            // by row: positions in nodes whose walk reaches a cycle
}

func newLoopGraph(edges []ForwardingEdge, nodes []string) *loopGraph {
	g := &loopGraph{
		nodes:   nodes,
		starts:  make([]int32, len(nodes)),
		columns: make(map[string]int32, len(nodes)),
		rows:    make(map[bgp.Prefix]int32),
	}
	column := func(name string) int32 {
		col, ok := g.columns[name]
		if !ok {
			col = int32(len(g.columns))
			g.columns[name] = col
		}
		return col
	}
	for i, name := range nodes {
		g.starts[i] = column(name)
	}
	for _, e := range edges {
		column(e.Node)
		if _, ok := g.rows[e.Prefix]; !ok {
			g.rows[e.Prefix] = 0
			g.prefixes = append(g.prefixes, e.Prefix)
		}
	}
	bgp.SortPrefixes(g.prefixes)
	for row, pfx := range g.prefixes {
		g.rows[pfx] = int32(row)
	}
	g.next = make([]int32, len(g.prefixes)*len(g.columns))
	for i := range g.next {
		g.next[i] = noHop
	}
	for _, e := range edges { // in order: the last edge of a (node, prefix) wins
		g.row(int(g.rows[e.Prefix]))[g.columns[e.Node]] = g.hop(e.NextHop)
	}
	var w loopWalk
	g.loops = make([][]int32, len(g.prefixes))
	for row := range g.loops {
		g.loops[row] = w.loopStarts(g, g.row(row))
	}
	return g
}

// hop is the column a next-hop name forwards to.
func (g *loopGraph) hop(nextHop string) int32 {
	if col, ok := g.columns[nextHop]; ok && nextHop != "" {
		return col
	}
	return noHop
}

func (g *loopGraph) row(i int) []int32 {
	return g.next[i*len(g.columns) : (i+1)*len(g.columns)]
}

// hopChange is one place where a graph departs from a loopGraph: at prefix,
// column col now forwards to hop.
type hopChange struct {
	pfx      bgp.Prefix
	col, hop int32
}

// check is the property's Result for the graph that departs from g by the
// changes (none: g itself). Only the prefixes some change names are walked
// again, on g's row patched with the changes — a row of noHop for a prefix g
// never saw; the others keep g's loops.
func (g *loopGraph) check(p LoopFreedom, changes []hopChange) Result {
	if len(changes) > 1 {
		sort.Slice(changes, func(i, j int) bool { return changes[i].pfx.Less(changes[j].pfx) })
	}
	res := Result{Property: p.Name()}
	looped := make([]bool, len(g.columns))
	add := func(pfx bgp.Prefix, starts []int32) {
		for _, i := range starts {
			looped[g.starts[i]] = true
			res.Violations = append(res.Violations, Violation{
				Property: p.Name(),
				Class:    ClassPolicyConflict,
				Node:     g.nodes[i],
				Prefix:   pfx,
				HasPfx:   true,
				Detail:   "forwarding loop",
			})
		}
	}
	var w loopWalk
	var row []int32
	// rewalk consumes the changes of the first changed prefix left.
	rewalk := func(unchanged []int32) {
		pfx := changes[0].pfx
		row = append(row[:0], unchanged...)
		for unchanged == nil && len(row) < len(g.columns) {
			row = append(row, noHop) // a prefix g never saw: nobody forwards yet
		}
		for ; len(changes) > 0 && changes[0].pfx == pfx; changes = changes[1:] {
			row[changes[0].col] = changes[0].hop
		}
		add(pfx, w.loopStarts(g, row))
	}
	for i, pfx := range g.prefixes {
		for len(changes) > 0 && changes[0].pfx.Less(pfx) {
			rewalk(nil)
		}
		if len(changes) > 0 && changes[0].pfx == pfx {
			rewalk(g.row(i))
		} else {
			add(pfx, g.loops[i])
		}
	}
	for len(changes) > 0 {
		rewalk(nil)
	}
	for i, name := range g.nodes {
		res.add(nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: !looped[g.starts[i]]}})
	}
	return res
}

// loopWalk classifies every column of one row in a single pass — each
// column's walk stops at the first column already classified — and keeps its
// scratch between rows.
type loopWalk struct {
	state []uint8
	path  []int32
}

const (
	unvisited uint8 = iota
	onPath
	ends     // the walk reaches an origin or a node without a route
	cycles   // the walk reaches a cycle
	reported // cycles, and already listed as a start of this row
)

// loopStarts returns the positions in g.nodes whose walk along row reaches a
// cycle, each name once, in order; nil when the row is loop-free.
func (w *loopWalk) loopStarts(g *loopGraph, row []int32) []int32 {
	w.state = append(w.state[:0], make([]uint8, len(row))...)
	for first := range row {
		cur := int32(first)
		w.path = w.path[:0]
		for cur != noHop && w.state[cur] == unvisited {
			w.state[cur] = onPath
			w.path = append(w.path, cur)
			cur = row[cur]
		}
		verdict := ends
		if cur != noHop && w.state[cur] != ends {
			verdict = cycles // ran into its own path, or into a walk that cycles
		}
		for _, col := range w.path {
			w.state[col] = verdict
		}
	}
	var starts []int32
	for i, col := range g.starts {
		if w.state[col] == cycles {
			w.state[col] = reported
			starts = append(starts, int32(i))
		}
	}
	return starts
}

//
// Convergence: the system settles instead of oscillating (persistent route
// flapping is the signature of a policy conflict such as a dispute wheel).
//

// Convergence checks that no node changed its best route for any single
// prefix more than MaxChangesPerPrefix times.
type Convergence struct {
	MaxChangesPerPrefix int
}

// Name implements Property.
func (Convergence) Name() string { return "convergence" }

// Check implements Property. Each node inspects only its own event log and
// shares a verdict.
func (p Convergence) Check(c *cluster.Cluster) Result { return checkNodes(p, c) }

func (p Convergence) forNode(*cluster.Cluster) func(string, node.Router) nodeResult {
	limit := p.MaxChangesPerPrefix
	if limit <= 0 {
		limit = 8
	}
	return func(name string, r node.Router) nodeResult {
		out := nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: true}}
		counts := make(map[bgp.Prefix]int)
		for _, ev := range r.Events() {
			counts[ev.Prefix]++
		}
		prefixes := make([]bgp.Prefix, 0, len(counts))
		for pfx := range counts {
			prefixes = append(prefixes, pfx)
		}
		bgp.SortPrefixes(prefixes)
		for _, pfx := range prefixes {
			if counts[pfx] > limit {
				out.verdict.OK = false
				out.violations = append(out.violations, Violation{
					Property: p.Name(),
					Class:    ClassPolicyConflict,
					Node:     name,
					Prefix:   pfx,
					HasPfx:   true,
					Detail:   fmt.Sprintf("best route changed %d times (limit %d): oscillation", counts[pfx], limit),
				})
			}
		}
		return out
	}
}

//
// NodeHealth: no node crashed or violates its local invariants (programming
// errors).
//

// NodeHealth checks per-node invariants and crash status.
type NodeHealth struct{}

// Name implements Property.
func (NodeHealth) Name() string { return "node-health" }

// Check implements Property.
func (p NodeHealth) Check(c *cluster.Cluster) Result { return checkNodes(p, c) }

func (p NodeHealth) forNode(*cluster.Cluster) func(string, node.Router) nodeResult {
	return func(name string, r node.Router) nodeResult {
		out := nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: true}}
		failed := r.CheckInvariants()
		sort.Strings(failed)
		for _, v := range failed {
			out.violations = append(out.violations, Violation{
				Property: p.Name(),
				Class:    ClassProgrammingError,
				Node:     name,
				Detail:   v,
			})
		}
		if len(failed) > 0 {
			out.verdict.OK, out.verdict.Detail = false, fmt.Sprintf("%d invariant violations", len(failed))
		}
		return out
	}
}
