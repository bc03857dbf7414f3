package dice

import (
	"fmt"
	"sort"

	"github.com/dice-project/dice/internal/topology"
)

// Unit is one schedulable piece of exploration work: a (explorer, peer) pair
// plus its share of the campaign's input budget. Strategies plan units; the
// campaign's worker pool executes them, each unit over isolated clones of the
// shared snapshot.
type Unit struct {
	// Explorer is the node whose behaviour is explored.
	Explorer string
	// FromPeer is the neighbor whose inputs are explored at the explorer.
	FromPeer string
	// MaxInputs bounds the clone executions of this unit. Zero lets the
	// campaign split its budget across units.
	MaxInputs int
	// FuzzSeeds is the number of grammar-fuzzed seed messages for this unit.
	// Zero inherits the campaign default.
	FuzzSeeds int
	// Seed drives this unit's fuzzing and exploration. Zero lets the campaign
	// derive a per-unit seed from the campaign seed and the unit's index, so
	// different units explore different corners of the input space.
	Seed int64
	// Domain is the administrative domain that owns the unit's explorer.
	// Federated planning fills it in; it is empty in centralized campaigns.
	Domain string
}

func (u Unit) String() string { return fmt.Sprintf("%s<-%s", u.Explorer, u.FromPeer) }

// Strategy plans which (explorer, peer) units a campaign runs. Planning is
// pure: it sees only the topology and the configured explorer set, so a plan
// is deterministic and independent of the worker count.
type Strategy interface {
	// Name identifies the strategy in results and events.
	Name() string
	// Plan returns the units to explore. explorers is the user-configured
	// explorer set (possibly empty, meaning "strategy default").
	Plan(topo *topology.Topology, explorers []string) ([]Unit, error)
}

// highestDegreeNode returns the router with the most neighbors, ties broken
// by lexicographically smallest name regardless of the topology's node order
// (covered by TestHighestDegreeTieBreak).
func highestDegreeNode(topo *topology.Topology) string {
	return topo.BestConnected()
}

// highestDegreeNodeOf restricts the highest-degree selection to a candidate
// set (a federation domain's nodes), with the same tie-break. Degree still
// counts every neighbor, including ones outside the set: a domain's
// best-connected router is the one with the most sessions, wherever they
// lead.
func highestDegreeNodeOf(topo *topology.Topology, names []string) string {
	return topo.BestConnected(names...)
}

// peersOf returns up to max neighbors of the explorer (all when max <= 0),
// in deterministic order.
func peersOf(topo *topology.Topology, explorer string, max int) ([]string, error) {
	neighbors := append([]string(nil), topo.NeighborsOf(explorer)...)
	if len(neighbors) == 0 {
		return nil, fmt.Errorf("dice: explorer %s has no neighbors", explorer)
	}
	sort.Strings(neighbors)
	if max > 0 && len(neighbors) > max {
		neighbors = neighbors[:max]
	}
	return neighbors, nil
}

// resolveExplorers validates the configured explorer set, or falls back to
// the single highest-degree node.
func resolveExplorers(topo *topology.Topology, explorers []string) ([]string, error) {
	if len(explorers) == 0 {
		return []string{highestDegreeNode(topo)}, nil
	}
	for _, name := range explorers {
		if topo.Node(name) == nil {
			return nil, fmt.Errorf("dice: unknown explorer %q", name)
		}
	}
	return explorers, nil
}

// DegreeStrategy explores from the highest-degree router (or each configured
// explorer), pairing it with up to PeersPerExplorer of its neighbors. It is
// the campaign default and, with one explorer and one peer, reproduces the
// classic single-round behaviour.
type DegreeStrategy struct {
	// PeersPerExplorer bounds how many neighbors are explored per explorer.
	// Zero selects 1 (the classic behaviour); negative selects all neighbors.
	PeersPerExplorer int
}

// Name implements Strategy.
func (s DegreeStrategy) Name() string { return "degree" }

// Plan implements Strategy.
func (s DegreeStrategy) Plan(topo *topology.Topology, explorers []string) ([]Unit, error) {
	explorers, err := resolveExplorers(topo, explorers)
	if err != nil {
		return nil, err
	}
	max := s.PeersPerExplorer
	if max == 0 {
		max = 1
	}
	var units []Unit
	for _, ex := range explorers {
		peers, err := peersOf(topo, ex, max)
		if err != nil {
			return nil, err
		}
		for _, p := range peers {
			units = append(units, Unit{Explorer: ex, FromPeer: p})
		}
	}
	return units, nil
}

// RoundRobinStrategy cycles through the explorer set, pairing each visit with
// the explorer's next neighbor in turn, for a fixed number of units. It
// spreads a budget evenly over many (explorer, peer) combinations.
type RoundRobinStrategy struct {
	// Units is the total number of units to plan. Zero selects one unit per
	// explorer.
	Units int
}

// Name implements Strategy.
func (s RoundRobinStrategy) Name() string { return "round-robin" }

// Plan implements Strategy.
func (s RoundRobinStrategy) Plan(topo *topology.Topology, explorers []string) ([]Unit, error) {
	explorers, err := resolveExplorers(topo, explorers)
	if err != nil {
		return nil, err
	}
	n := s.Units
	if n <= 0 {
		n = len(explorers)
	}
	peerIdx := make(map[string]int, len(explorers))
	units := make([]Unit, 0, n)
	for i := 0; i < n; i++ {
		ex := explorers[i%len(explorers)]
		peers, err := peersOf(topo, ex, -1)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{Explorer: ex, FromPeer: peers[peerIdx[ex]%len(peers)]})
		peerIdx[ex]++
	}
	return units, nil
}

// AllNodesStrategy explores every router of the topology (or every configured
// explorer) from its first neighbor — the widest sweep, covering scenarios a
// single hand-picked explorer would miss.
type AllNodesStrategy struct{}

// Name implements Strategy.
func (AllNodesStrategy) Name() string { return "all-nodes" }

// Plan implements Strategy.
func (AllNodesStrategy) Plan(topo *topology.Topology, explorers []string) ([]Unit, error) {
	if len(explorers) == 0 {
		explorers = topo.NodeNames()
	} else if _, err := resolveExplorers(topo, explorers); err != nil {
		return nil, err
	}
	var units []Unit
	for _, ex := range explorers {
		peers, err := peersOf(topo, ex, 1)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{Explorer: ex, FromPeer: peers[0]})
	}
	return units, nil
}

// fixedStrategy returns a literal unit list; WithUnits uses it.
type fixedStrategy struct{ units []Unit }

// Name implements Strategy.
func (fixedStrategy) Name() string { return "fixed" }

// Plan implements Strategy.
func (s fixedStrategy) Plan(topo *topology.Topology, _ []string) ([]Unit, error) {
	if len(s.units) == 0 {
		return nil, fmt.Errorf("dice: fixed strategy with no units")
	}
	units := append([]Unit(nil), s.units...)
	for i := range units {
		if topo.Node(units[i].Explorer) == nil {
			return nil, fmt.Errorf("dice: unknown explorer %q", units[i].Explorer)
		}
		if units[i].FromPeer == "" {
			peers, err := peersOf(topo, units[i].Explorer, 1)
			if err != nil {
				return nil, err
			}
			units[i].FromPeer = peers[0]
		}
	}
	return units, nil
}
