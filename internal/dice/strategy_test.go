package dice

import (
	"testing"

	"github.com/dice-project/dice/internal/topology"
)

// tieTopo builds a topology whose equal-degree nodes are deliberately listed
// in non-lexicographic order, so the tie-break cannot hide behind iteration
// order.
func tieTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo := topology.Line(4) // R1-R2-R3-R4: R2 and R3 both have degree 2
	// Reverse the node list so R3 is visited before R2.
	for i, j := 0, len(topo.Nodes)-1; i < j; i, j = i+1, j-1 {
		topo.Nodes[i], topo.Nodes[j] = topo.Nodes[j], topo.Nodes[i]
	}
	return topo
}

func TestHighestDegreeTieBreak(t *testing.T) {
	topo := tieTopo(t)
	if got := highestDegreeNode(topo); got != "R2" {
		t.Errorf("highestDegreeNode = %s, want lexicographically smallest equal-degree node R2", got)
	}
	// The campaign's default plan goes through the same code path.
	if units, err := (DegreeStrategy{}).Plan(topo, nil); err != nil || units[0].Explorer != "R2" {
		t.Errorf("default plan = %+v, %v; want explorer R2", units, err)
	}
	// An explicit explorer always wins.
	if units, err := (DegreeStrategy{}).Plan(topo, []string{"R4"}); err != nil || units[0].Explorer != "R4" {
		t.Errorf("explicit explorer overridden: %+v, %v", units, err)
	}
}

func TestDegreeStrategyPlan(t *testing.T) {
	topo := topology.Star(4) // hub R1 with leaves R2..R4
	units, err := DegreeStrategy{}.Plan(topo, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(units) != 1 || units[0].Explorer != "R1" || units[0].FromPeer != "R2" {
		t.Errorf("degree plan = %+v, want one unit R1<-R2", units)
	}
	units, err = DegreeStrategy{PeersPerExplorer: -1}.Plan(topo, nil)
	if err != nil {
		t.Fatalf("Plan all peers: %v", err)
	}
	if len(units) != 3 {
		t.Errorf("all-peers plan = %d units, want 3", len(units))
	}
	if _, err := (DegreeStrategy{}).Plan(topo, []string{"R99"}); err == nil {
		t.Errorf("unknown explorer must fail planning")
	}
}

func TestRoundRobinStrategyPlan(t *testing.T) {
	topo := topology.Ring(4)
	units, err := RoundRobinStrategy{Units: 6}.Plan(topo, []string{"R1", "R2"})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(units) != 6 {
		t.Fatalf("round-robin planned %d units, want 6", len(units))
	}
	// Explorers alternate; peers rotate per explorer without repeating until
	// the neighbor set is exhausted.
	for i, u := range units {
		wantEx := []string{"R1", "R2"}[i%2]
		if u.Explorer != wantEx {
			t.Errorf("unit %d explorer = %s, want %s", i, u.Explorer, wantEx)
		}
	}
	if units[0].FromPeer == units[2].FromPeer {
		t.Errorf("round-robin did not rotate peers for R1: %+v", units)
	}
}

func TestAllNodesStrategyPlan(t *testing.T) {
	topo := topology.Line(3)
	units, err := AllNodesStrategy{}.Plan(topo, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(units) != 3 {
		t.Fatalf("all-nodes planned %d units, want 3", len(units))
	}
	seen := map[string]bool{}
	for _, u := range units {
		seen[u.Explorer] = true
		if u.FromPeer == "" {
			t.Errorf("unit %v missing peer", u)
		}
	}
	for _, name := range topo.NodeNames() {
		if !seen[name] {
			t.Errorf("all-nodes skipped %s", name)
		}
	}
}

func TestFixedStrategyFillsPeer(t *testing.T) {
	topo := topology.Line(3)
	units, err := (fixedStrategy{units: []Unit{{Explorer: "R2"}}}).Plan(topo, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if units[0].FromPeer != "R1" {
		t.Errorf("fixed strategy peer default = %s, want R1", units[0].FromPeer)
	}
	if _, err := (fixedStrategy{}).Plan(topo, nil); err == nil {
		t.Errorf("fixed strategy with no units must fail")
	}
}
