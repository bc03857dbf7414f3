package checker

import (
	"fmt"
	"strings"

	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
)

// Divergence classifications. Every flagged disagreement is replayed through
// the full decision-policy universe and classified by vote; the class leads
// the violation detail so reports and experiments can bucket findings
// without re-running the replay.
const (
	// DivergenceMajorityOutvoted marks a 2-vs-1 split: two of the three
	// conformant tie-break orders agree and one selects differently. The
	// outvoted implementation is not wrong — but a deployment mixing it with
	// either of the others forwards differently than the majority would.
	DivergenceMajorityOutvoted = "majority-outvoted"
	// DivergencePairwiseLegal marks a three-way split: every policy selects
	// a different best path, so any heterogeneous pairing of backends
	// diverges on this state and no majority exists to arbitrate.
	DivergencePairwiseLegal = "pairwise-legal"
)

// CrossImplDivergence is the differential conformance check for
// heterogeneous deployments: it flags nodes whose best-path selection for a
// prefix depends on which router implementation the node runs. For every
// node and prefix with more than one candidate route, the node's candidate
// set — state the node already owns, so nothing extra crosses a domain
// boundary — is replayed through the decision policy of each implementation
// deployed in the cluster. A selection that differs between deployed
// policies is a divergence: two conformant vendors would forward the same
// traffic differently from the same state, the cross-implementation hazard
// the paper's heterogeneity scenario is about.
//
// The oracle is three-way: whenever deployed policies disagree, the
// candidate set is additionally replayed through the full policy universe
// (rib.AllDecisionPolicies) and the finding is classified by vote —
// majority-outvoted when exactly one policy dissents (2-vs-1), or
// pairwise-legal when all three select differently. Out-of-process backends
// ("proc:bird", "proc:obgpd", ...) resolve to the decision policy of the
// implementation they wrap, and implementations sharing a policy are
// deduplicated, so a cluster mixing bird with proc:bird is — correctly —
// not heterogeneous at the decision level.
//
// In a deployment with a single decision policy there is nothing to
// compare, so the property is inert: every verdict passes and no violations
// are produced, keeping homogeneous campaign results byte-identical whether
// or not the property is configured. Set CompareAll to instead compare the
// full policy universe — useful for asking "would this deployment be safe
// to diversify?" before any second implementation is rolled out.
type CrossImplDivergence struct {
	// CompareAll compares the full decision-policy universe rather than
	// only the policies deployed in the checked cluster.
	CompareAll bool
}

// Name implements Property.
func (CrossImplDivergence) Name() string { return "cross-impl-divergence" }

// comparedPolicies resolves the set of decision policies to compare, in the
// canonical rib.AllDecisionPolicies order. Deployed implementations that
// share a tie-break order collapse to one entry.
func (p CrossImplDivergence) comparedPolicies(c *cluster.Cluster) []rib.DecisionPolicy {
	if p.CompareAll {
		return rib.AllDecisionPolicies
	}
	deployed := make(map[rib.DecisionPolicy]bool)
	for _, impl := range c.Implementations() {
		be, err := node.BackendFor(impl)
		if err != nil {
			continue
		}
		deployed[be.Decision] = true
	}
	out := make([]rib.DecisionPolicy, 0, len(deployed))
	for _, pol := range rib.AllDecisionPolicies {
		if deployed[pol] {
			out = append(out, pol)
		}
	}
	return out
}

// Check implements Property. Disclosure accounting matches the other
// per-node properties: each node shares one verdict; the candidate replay
// happens node-locally. Nodes, prefixes and policies are all iterated in
// sorted order, so the violation set is deterministic.
func (p CrossImplDivergence) Check(c *cluster.Cluster) Result { return checkNodes(p, c) }

func (p CrossImplDivergence) forNode(c *cluster.Cluster) func(string, node.Router) nodeResult {
	policies := p.comparedPolicies(c)
	return func(name string, r node.Router) nodeResult {
		out := nodeResult{verdict: Verdict{Node: name, Property: p.Name(), OK: true}}
		if len(policies) < 2 {
			return out
		}
		lr := r.LocRIB()
		for _, pfx := range lr.Prefixes() {
			cands := lr.Candidates(pfx)
			if len(cands) < 2 {
				continue
			}
			first := rib.SelectBestWith(nil, cands, policies[0])
			diverged := false
			for _, pol := range policies[1:] {
				if !sameSelection(first, rib.SelectBestWith(nil, cands, pol)) {
					diverged = true
					break
				}
			}
			if !diverged {
				continue
			}
			out.verdict.OK, out.verdict.Detail = false, "implementation-dependent best path"
			out.violations = append(out.violations, Violation{
				Property: p.Name(),
				Class:    ClassImplDivergence,
				Node:     name,
				Prefix:   pfx,
				HasPfx:   true,
				Detail:   classifyDivergence(cands),
			})
		}
		return out
	}
}

// classifyDivergence replays a divergent candidate set through the full
// policy universe and renders the vote: the classification, then each
// policy's selection. Policies agreeing on a selection are grouped.
func classifyDivergence(cands []*rib.Route) string {
	type ballot struct {
		sel  *rib.Route
		pols []rib.DecisionPolicy
	}
	var ballots []ballot
	for _, pol := range rib.AllDecisionPolicies {
		sel := rib.SelectBestWith(nil, cands, pol)
		placed := false
		for i := range ballots {
			if sameSelection(ballots[i].sel, sel) {
				ballots[i].pols = append(ballots[i].pols, pol)
				placed = true
				break
			}
		}
		if !placed {
			ballots = append(ballots, ballot{sel: sel, pols: []rib.DecisionPolicy{pol}})
		}
	}
	switch len(ballots) {
	case 1:
		// The full universe agrees even though a subset of deployed policies
		// did not — impossible while deployed ⊆ universe, but render it
		// rather than misclassify if the universe ever narrows.
		return fmt.Sprintf("universe-agrees: all policies select via %s", selectionVia(ballots[0].sel))
	case len(rib.AllDecisionPolicies):
		parts := make([]string, len(ballots))
		for i, b := range ballots {
			parts[i] = fmt.Sprintf("%s selects via %s", b.pols[0], selectionVia(b.sel))
		}
		return DivergencePairwiseLegal + ": " + strings.Join(parts, ", ")
	default:
		// 2-vs-1: name the dissenter first, then the majority.
		loser, winner := ballots[0], ballots[1]
		if len(loser.pols) > len(winner.pols) {
			loser, winner = winner, loser
		}
		names := make([]string, len(winner.pols))
		for i, pol := range winner.pols {
			names[i] = pol.String()
		}
		return fmt.Sprintf("%s: %s alone selects via %s; %s select via %s",
			DivergenceMajorityOutvoted, loser.pols[0], selectionVia(loser.sel),
			strings.Join(names, " and "), selectionVia(winner.sel))
	}
}

// sameSelection compares two selections by source: the decision process
// picks among candidates keyed by (peer, local), so equal sources mean the
// same route object.
func sameSelection(a, b *rib.Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Peer == b.Peer && a.Local == b.Local
}

func selectionVia(r *rib.Route) string {
	switch {
	case r == nil:
		return "none"
	case r.Local:
		return "local"
	default:
		return r.Peer
	}
}
