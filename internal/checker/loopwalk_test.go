package checker

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
)

// naiveLoopCheck is the walk CheckProjection used to be: a map of maps, and a
// fresh seen-set per (prefix, start). It is kept as the oracle the one-pass
// walk is compared against.
func naiveLoopCheck(edges []ForwardingEdge, nodes []string) Result {
	p := LoopFreedom{}
	res := Result{Property: p.Name()}
	nextHop := make(map[string]map[bgp.Prefix]string)
	prefixSet := make(map[bgp.Prefix]bool)
	for _, e := range edges {
		proj := nextHop[e.Node]
		if proj == nil {
			proj = make(map[bgp.Prefix]string)
			nextHop[e.Node] = proj
		}
		proj[e.Prefix] = e.NextHop
		prefixSet[e.Prefix] = true
	}
	prefixes := make([]bgp.Prefix, 0, len(prefixSet))
	for pfx := range prefixSet {
		prefixes = append(prefixes, pfx)
	}
	bgp.SortPrefixes(prefixes)

	loopSeen := make(map[string]bool)
	loopByNode := make(map[string]bool)
	for _, pfx := range prefixes {
		for _, start := range nodes {
			seen := map[string]bool{}
			cur := start
			for {
				if seen[cur] {
					key := start + "|" + pfx.String()
					if !loopSeen[key] {
						loopSeen[key] = true
						loopByNode[start] = true
						res.Violations = append(res.Violations, Violation{
							Property: p.Name(),
							Class:    ClassPolicyConflict,
							Node:     start,
							Prefix:   pfx,
							HasPfx:   true,
							Detail:   "forwarding loop",
						})
					}
					break
				}
				seen[cur] = true
				next, ok := nextHop[cur][pfx]
				if !ok || next == "" {
					break
				}
				cur = next
			}
		}
	}
	for _, name := range nodes {
		v := Verdict{Node: name, Property: p.Name(), OK: !loopByNode[name]}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

// TestLoopWalkMatchesNaiveWalk compares the one-pass walk with the naive one
// over seeded random functional graphs: self-loops, tails into cycles, next
// hops and edge sources outside the start set, nodes without an edge for a
// prefix, origins, duplicate edges (the last one wins) and a duplicated start.
func TestLoopWalkMatchesNaiveWalk(t *testing.T) {
	looped := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var nodes, names []string
		for i := 0; i < n; i++ {
			nodes = append(nodes, fmt.Sprintf("R%d", i))
		}
		// Edge sources and next hops are drawn from the starts plus a few
		// names outside them; X1 discloses edges, X2 never does.
		names = append(append(names, nodes...), "X1", "X2")
		if rng.Intn(4) == 0 {
			nodes = append(nodes, nodes[rng.Intn(n)])
		}
		var edges []ForwardingEdge
		for p := 0; p < 1+rng.Intn(5); p++ {
			pfx := bgp.Prefix{Addr: uint32(10+rng.Intn(3))<<24 | uint32(p)<<8, Len: 24}
			for _, src := range names[:n+1] {
				for dup := 0; dup < 1+rng.Intn(2); dup++ {
					switch rng.Intn(6) {
					case 0: // no route for the prefix
					case 1:
						edges = append(edges, ForwardingEdge{Node: src, Prefix: pfx}) // origin
					case 2:
						edges = append(edges, ForwardingEdge{Node: src, Prefix: pfx, NextHop: src}) // self-loop
					default:
						edges = append(edges, ForwardingEdge{Node: src, Prefix: pfx, NextHop: names[rng.Intn(len(names))]})
					}
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		want := naiveLoopCheck(edges, nodes)
		got := LoopFreedom{}.CheckProjection(edges, nodes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: one-pass walk differs from the naive walk\nedges %v\nnodes %v\n got %+v\nwant %+v", seed, edges, nodes, got, want)
		}
		looped += len(want.Violations)
	}
	if looped == 0 {
		t.Fatal("no generated graph had a loop; the comparison is vacuous")
	}
	if got, want := (LoopFreedom{}).CheckProjection(nil, nil), naiveLoopCheck(nil, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty projection: got %+v want %+v", got, want)
	}
}

// randomProjection draws, per node, the edges a router would disclose: one
// edge at most per prefix, next hops among the nodes, the origin, or a name
// that discloses nothing. loopy skews the draw towards next hops, so cycles
// are common.
func randomProjection(rng *rand.Rand, nodes []string, prefixes []bgp.Prefix, loopy bool) [][]ForwardingEdge {
	perNode := make([][]ForwardingEdge, len(nodes))
	for i, name := range nodes {
		for _, pfx := range prefixes {
			switch k := rng.Intn(8); {
			case k == 0: // no route
			case k == 1 || (!loopy && k < 5):
				perNode[i] = append(perNode[i], ForwardingEdge{Node: name, Prefix: pfx})
			case k == 2:
				perNode[i] = append(perNode[i], ForwardingEdge{Node: name, Prefix: pfx, NextHop: "outside"})
			default:
				perNode[i] = append(perNode[i], ForwardingEdge{Node: name, Prefix: pfx, NextHop: nodes[rng.Intn(len(nodes))]})
			}
		}
	}
	return perNode
}

// TestLoopBaselineCheckMatchesFullCheck drives the evaluator's loop-freedom
// core without routers: a baseline graph, then graphs in which some nodes
// changed, lost or gained edges — on prefixes the baseline knows and on new
// ones — each checked incrementally against the baseline and in full.
func TestLoopBaselineCheckMatchesFullCheck(t *testing.T) {
	p := LoopFreedom{}
	looped, rewalked := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nodes []string
		for i := 0; i < 2+rng.Intn(10); i++ {
			nodes = append(nodes, fmt.Sprintf("R%d", i))
		}
		var known, all []bgp.Prefix
		for i := 0; i < 2+rng.Intn(5); i++ {
			known = append(known, bgp.Prefix{Addr: uint32(10+2*i) << 24, Len: 8})
		}
		all = append(all, known...)
		for i := 0; i < 3; i++ { // prefixes before, between and after the known ones
			all = append(all, bgp.Prefix{Addr: uint32(9+4*i) << 24, Len: 8})
		}
		baseEdges := randomProjection(rng, nodes, known, seed%2 == 0)
		var flat []ForwardingEdge
		for _, es := range baseEdges {
			flat = append(flat, es...)
		}
		base := newLoopGraph(flat, nodes)

		for round := 0; round < 6; round++ {
			current := make([][]ForwardingEdge, len(nodes))
			copy(current, baseEdges)
			for moved := rng.Intn(len(nodes) + 1); moved > 0; moved-- {
				i := rng.Intn(len(nodes))
				current[i] = randomProjection(rng, nodes, all[:len(known)+rng.Intn(4)], round%2 == 0)[i]
			}
			var changes []hopChange
			flat = flat[:0]
			for i, es := range current {
				changes = append(changes, base.diff(base.starts[i], es).hops...)
				flat = append(flat, es...)
			}
			rewalked += len(changes)
			want := p.CheckProjection(flat, nodes)
			if naive := naiveLoopCheck(flat, nodes); !reflect.DeepEqual(naive.Violations, want.Violations) {
				t.Fatalf("seed %d round %d: the full check disagrees with the naive walk", seed, round)
			}
			if got := base.check(p, changes); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: incremental check differs from the full one\nbaseline %v\ncurrent %v\n got %+v\nwant %+v", seed, round, baseEdges, current, got, want)
			}
			looped += len(want.Violations)
		}
	}
	if looped == 0 || rewalked == 0 {
		t.Fatalf("vacuous: %d loop violations, %d changed hops", looped, rewalked)
	}
}
