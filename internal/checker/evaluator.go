package checker

import (
	"slices"
	"sync/atomic"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
)

// Evaluator computes CheckAll's report — the same violations in the same
// order, the same verdicts, the same DisclosedBytes — for clones of one
// snapshot store, at a cost that follows what the explored input disturbed
// rather than the size of the deployment. A router that still holds the
// store's (image, state) is the snapshot, so what a node-local property made
// of it once stands for every later clean sighting; loop freedom re-walks
// only the prefixes on which some router's forwarding edge departs from a
// baseline graph. CheckAll stays the definition, and the oracle the
// equivalence tests compare every report against.
//
// Memo entries are immutable once published: an Evaluator is safe for
// concurrent use by workers checking their own clones.
type Evaluator struct {
	store *checkpoint.Store
	props []Property
	memos map[string]*nodeMemo // one per store node, fixed at construction
	loops atomic.Pointer[loopGraph]
}

// nodeMemo is what is known about one router in the store's state, filled
// in the first time the router is seen clean.
type nodeMemo struct {
	local []atomic.Pointer[nodeResult] // by property index
	edges atomic.Pointer[edgeDiff]
}

// snapshotHolder is the optional interface a router implements to say it
// still holds a snapshot pair untouched. A router without it (the procdriver
// proxy) is re-checked every time.
type snapshotHolder interface {
	Holds(im node.Image, st node.State) bool
}

// NewEvaluator returns an evaluator of props for clones of the store.
func NewEvaluator(store *checkpoint.Store, props []Property) *Evaluator {
	e := &Evaluator{store: store, props: props, memos: make(map[string]*nodeMemo)}
	for _, name := range store.NodeNames() {
		e.memos[name] = &nodeMemo{local: make([]atomic.Pointer[nodeResult], len(props))}
	}
	return e
}

// CheckAll evaluates every property over the clone.
func (e *Evaluator) CheckAll(c *cluster.Cluster) *Report {
	// Which routers are clean is settled before any property runs: node
	// health's CheckInvariants can itself move a router, and a router that
	// was the snapshot when the check began is memoisable throughout it.
	names := c.RouterNames()
	clean := make([]*nodeMemo, len(names)) // nil: re-check
	for i, name := range names {
		if h, ok := c.Router(name).(snapshotHolder); ok && h.Holds(e.store.Image(name), e.store.State(name)) {
			clean[i] = e.memos[name]
		}
	}
	rep := &Report{Results: make([]Result, 0, len(e.props))}
	for k, p := range e.props {
		switch p := p.(type) {
		case nodeLocal:
			res := Result{Property: p.Name(), Verdicts: make([]Verdict, 0, len(names))}
			check := p.forNode(c)
			for i, name := range names {
				if clean[i] == nil {
					res.add(check(name, c.Router(name)))
					continue
				}
				out := clean[i].local[k].Load()
				if out == nil {
					first := check(name, c.Router(name))
					out = &first
					clean[i].local[k].Store(out)
				}
				res.add(*out)
			}
			rep.Results = append(rep.Results, res)
		case LoopFreedom:
			rep.Results = append(rep.Results, e.checkLoops(p, c, names, clean))
		default:
			rep.Results = append(rep.Results, p.Check(c))
		}
	}
	return rep
}

// edgeDiff is where one router's edges depart from the baseline graph, and
// what disclosing them costs.
type edgeDiff struct {
	hops   []hopChange
	charge int
}

// diff compares a router's current edges with its column of g. A prefix the
// router no longer has a route for, and one g never saw, both count as
// changes.
func (g *loopGraph) diff(col int32, edges []ForwardingEdge) *edgeDiff {
	d := &edgeDiff{}
	now := make([]int32, len(g.prefixes))
	for i := range now {
		now[i] = noHop
	}
	for _, e := range edges {
		d.charge += 5 + len(e.NextHop) // as LoopFreedom.Check charges it
		if row, ok := g.rows[e.Prefix]; ok {
			now[row] = g.hop(e.NextHop)
		} else if hop := g.hop(e.NextHop); hop != noHop {
			d.hops = append(d.hops, hopChange{e.Prefix, col, hop})
		}
	}
	for row, hop := range now {
		if hop != g.row(row)[col] {
			d.hops = append(d.hops, hopChange{g.prefixes[row], col, hop})
		}
	}
	return d
}

// checkLoops is LoopFreedom.Check against a baseline: the forwarding graph of
// the first clone checked (any graph would do — reports are exact whatever
// the baseline, it only has to be close to what later clones hold). A clean
// router's diff is memoised, a moved router's is taken now.
func (e *Evaluator) checkLoops(p LoopFreedom, c *cluster.Cluster, names []string, clean []*nodeMemo) Result {
	base := e.loops.Load()
	if base == nil {
		e.loops.CompareAndSwap(nil, newLoopGraph(p.Projection(c), names))
		base = e.loops.Load()
	}
	if !slices.Equal(names, base.nodes) {
		return p.Check(c) // not a clone of the deployment the baseline describes
	}
	var changes []hopChange
	charge := 0
	for i, name := range names {
		var d *edgeDiff
		if clean[i] != nil {
			d = clean[i].edges.Load()
		}
		if d == nil {
			d = base.diff(base.starts[i], appendEdges(nil, name, c.Router(name)))
			if clean[i] != nil {
				clean[i].edges.Store(d)
			}
		}
		changes = append(changes, d.hops...)
		charge += d.charge
	}
	res := base.check(p, changes)
	res.DisclosedBytes += charge
	return res
}
