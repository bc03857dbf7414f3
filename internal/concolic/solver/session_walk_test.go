package solver_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/concolic/solver"
	"github.com/dice-project/dice/internal/concolic/updatepaths"
)

// checkFlip compares one session query against the from-scratch reference:
// the same status and step count, and a model that binds exactly the
// query's variables with the reference's values for them.
func checkFlip(t *testing.T, where string, got, want solver.Result, query []*expr.Expr) {
	t.Helper()
	if got.Status != want.Status || got.Steps != want.Steps {
		t.Fatalf("%s: session %v after %d steps, reference %v after %d", where, got.Status, got.Steps, want.Status, want.Steps)
	}
	if !got.Sat() {
		return
	}
	vars := map[string]uint8{}
	for _, c := range query {
		if c != nil {
			c.Vars(vars)
		}
	}
	if len(got.Model) != len(vars) {
		t.Fatalf("%s: model binds %d variables, the query mentions %d", where, len(got.Model), len(vars))
	}
	for name := range vars {
		g, ok := got.Model[name]
		if !ok || g != want.Model[name] {
			t.Fatalf("%s: %s = %d (bound %v), reference %d", where, name, g, ok, want.Model[name])
		}
	}
}

// walkPath queries every flip of path through the session and checks each
// against the reference. It returns the number of flips the reference
// answered by search (a nonzero step count).
func walkPath(t *testing.T, where string, sess *solver.Session, path []*expr.Expr, seed expr.Assignment, opts solver.Options, child func(i int, got, want expr.Assignment)) int {
	t.Helper()
	searched := 0
	sess.Reset(path, seed)
	for i := range path {
		flip := expr.Not(path[i])
		query := append(path[:i:i], flip)
		got := sess.Query(i, flip)
		want := solver.ReferenceSolve(query, seed, opts)
		checkFlip(t, fmt.Sprintf("%s flip %d", where, i), got, want, query)
		if want.Steps > 0 {
			searched++
		}
		if got.Sat() && child != nil {
			child(i, got.Model, want.Model)
		}
	}
	return searched
}

// TestSessionMatchesReferenceOnHandlerPaths walks path conditions recorded
// from the real UPDATE handler on three deployments. One session answers
// every flip of every path, in exploration order, and each answer must equal
// a from-scratch Solve of the same conjunction — status, model and steps —
// and derive the same child input.
func TestSessionMatchesReferenceOnHandlerPaths(t *testing.T) {
	opts := solver.Options{Seed: 2}
	sess := solver.NewSession(opts)
	for _, d := range updatepaths.Deployments() {
		machines, err := updatepaths.Record(d, 1, 40)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		deepest, flips, searched := 0, 0, 0
		for k, m := range machines {
			path := make([]*expr.Expr, 0, len(m.Path()))
			for _, b := range m.Path() {
				path = append(path, b.Cond)
			}
			deepest = max(deepest, len(path))
			flips += len(path)
			where := fmt.Sprintf("%s path %d", d.Name, k)
			searched += walkPath(t, where, sess, path, m.Assignment(), opts, func(i int, got, want expr.Assignment) {
				a, b := m.ApplyModel(m.Input(), got), m.ApplyModel(m.Input(), want)
				if !sameInput(a, b) {
					t.Fatalf("%s flip %d: child inputs differ:\n session   %v\n reference %v", where, i, a.Regions, b.Regions)
				}
			})
		}
		if deepest < 16 {
			t.Fatalf("%s: deepest recorded path has %d branches, want >= 16", d.Name, deepest)
		}
		if searched == 0 {
			t.Fatalf("%s: no flip reached the search phases", d.Name)
		}
		t.Logf("%s: %d paths, %d flips (%d searched), deepest %d", d.Name, len(machines), flips, searched, deepest)
	}
}

func sameInput(a, b *concolic.Input) bool {
	if len(a.Regions) != len(b.Regions) {
		return false
	}
	for name, data := range a.Regions {
		if !bytes.Equal(data, b.Regions[name]) {
			return false
		}
	}
	return true
}

// randomList draws a constraint list over a few variables of mixed widths:
// single-variable bounds and (in)equalities, which propagation handles, and
// arithmetic relations, which only the search phases can solve.
func randomList(rng *rand.Rand) ([]*expr.Expr, expr.Assignment) {
	widths := []uint8{8, 8, 8, 16, 32, 64}
	nv := 1 + rng.Intn(4)
	vars := make([]*expr.Expr, nv)
	seed := expr.Assignment{}
	for i := range vars {
		w := widths[rng.Intn(len(widths))]
		vars[i] = expr.Var(fmt.Sprintf("v%d", i), w)
		seed[vars[i].Name] = rng.Uint64() >> (64 - w)
	}
	konst := func(w uint8) *expr.Expr {
		if rng.Intn(3) == 0 {
			return expr.Const(uint64(rng.Intn(4)), w)
		}
		return expr.Const(rng.Uint64(), w)
	}
	cmps := []func(a, b *expr.Expr) *expr.Expr{expr.Eq, expr.Ne, expr.Ult, expr.Ule, expr.Ugt, expr.Uge}
	n := 2 + rng.Intn(14)
	list := make([]*expr.Expr, 0, n)
	for len(list) < n {
		x := vars[rng.Intn(nv)]
		cmp := cmps[rng.Intn(len(cmps))]
		var c *expr.Expr
		switch rng.Intn(4) {
		case 0, 1:
			c = cmp(x, konst(x.Width))
		case 2:
			c = cmp(expr.Const(uint64(rng.Intn(300)), 64), expr.ZExt(x, 64))
		default:
			y := vars[rng.Intn(nv)]
			if y.Width != x.Width {
				y = x
			}
			sum := expr.Add(expr.Mul(x, konst(x.Width)), y)
			c = cmp(sum, konst(x.Width))
		}
		if c.Kind == expr.KindBool {
			continue
		}
		list = append(list, c)
	}
	return list, seed
}

// TestSessionMatchesReferenceOnRandomLists walks seeded random constraint
// lists — the shapes of the TestQuick properties plus arithmetic that needs
// enumeration and local search — through one session, flip by flip, and as
// whole conjunctions (the Solve form).
func TestSessionMatchesReferenceOnRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, solverSeed := range []int64{1, -1, 77} {
		opts := solver.Options{Seed: solverSeed, MaxSteps: 512}
		sess := solver.NewSession(opts)
		searched := 0
		for k := 0; k < 300; k++ {
			list, seed := randomList(rng)
			if k%2 == 0 {
				seed = nil
			}
			where := fmt.Sprintf("seed %d list %d", solverSeed, k)
			searched += walkPath(t, where, sess, list, seed, opts, nil)
			got := sess.Query(len(list), nil)
			checkFlip(t, where+" whole", got, solver.ReferenceSolve(list, seed, opts), list)
		}
		if searched == 0 {
			t.Fatalf("solver seed %d: no flip reached the search phases", solverSeed)
		}
		t.Logf("solver seed %d: %d flips searched", solverSeed, searched)
	}
	// The TestQuick shapes: an interval and an equality, and contradictory
	// equalities.
	sess := solver.NewSession(solver.Options{})
	for k := 0; k < 200; k++ {
		x, y := expr.Var("x", 8), expr.Var("y", 8)
		a, b, c := uint64(rng.Intn(256)), uint64(rng.Intn(256)), uint64(rng.Intn(256))
		lists := [][]*expr.Expr{
			{expr.Uge(x, expr.Const(min(a, b), 8)), expr.Ule(x, expr.Const(max(a, b), 8)), expr.Eq(y, expr.Const(c, 8))},
			{expr.Eq(x, expr.Const(a, 8)), expr.Eq(x, expr.Const(b, 8))},
		}
		for _, list := range lists {
			walkPath(t, fmt.Sprintf("quick %d", k), sess, list, nil, solver.Options{}, nil)
		}
	}
}
