package solver

import (
	"testing"
	"testing/quick"

	"github.com/dice-project/dice/internal/concolic/expr"
)

func mustSat(t *testing.T, constraints []*expr.Expr, seed expr.Assignment) expr.Assignment {
	t.Helper()
	res := Solve(constraints, seed, Options{})
	if !res.Sat() {
		t.Fatalf("expected sat, got %v after %d steps", res.Status, res.Steps)
	}
	for i, c := range constraints {
		if !c.EvalBool(res.Model) {
			t.Fatalf("model %v does not satisfy constraint %d: %v", res.Model, i, c)
		}
	}
	return res.Model
}

func TestSolveEmpty(t *testing.T) {
	res := Solve(nil, expr.Assignment{"x": 7}, Options{})
	if !res.Sat() {
		t.Fatalf("empty conjunction should be sat")
	}
	// The model binds only the constraints' variables: none. Every other
	// variable keeps its seed value where the model is applied.
	if len(res.Model) != 0 {
		t.Errorf("model of an empty conjunction binds %v", res.Model)
	}
}

func TestSolveSingleEquality(t *testing.T) {
	x := expr.Var("x", 8)
	model := mustSat(t, []*expr.Expr{expr.Eq(x, expr.Const(42, 8))}, nil)
	if model["x"] != 42 {
		t.Errorf("x = %d, want 42", model["x"])
	}
}

func TestSolveRangeConstraints(t *testing.T) {
	x := expr.Var("x", 8)
	model := mustSat(t, []*expr.Expr{
		expr.Ugt(x, expr.Const(10, 8)),
		expr.Ult(x, expr.Const(13, 8)),
		expr.Ne(x, expr.Const(11, 8)),
	}, nil)
	if model["x"] != 12 {
		t.Errorf("x = %d, want 12", model["x"])
	}
}

func TestSolveUnsatByIntervals(t *testing.T) {
	x := expr.Var("x", 8)
	res := Solve([]*expr.Expr{
		expr.Ult(x, expr.Const(5, 8)),
		expr.Ugt(x, expr.Const(10, 8)),
	}, nil, Options{})
	if res.Status != StatusUnsat {
		t.Fatalf("expected unsat, got %v", res.Status)
	}
}

func TestSolveUnsatFalseConstant(t *testing.T) {
	res := Solve([]*expr.Expr{expr.False}, nil, Options{})
	if res.Status != StatusUnsat {
		t.Fatalf("expected unsat, got %v", res.Status)
	}
}

func TestSolveTwoVariableEquality(t *testing.T) {
	x := expr.Var("x", 8)
	y := expr.Var("y", 8)
	model := mustSat(t, []*expr.Expr{
		expr.Eq(expr.Add(x, y), expr.Const(10, 8)),
		expr.Eq(x, expr.Const(3, 8)),
	}, nil)
	if model["x"] != 3 || model["y"] != 7 {
		t.Errorf("model = %v, want x=3 y=7", model)
	}
}

func TestSolveArithmeticRelation(t *testing.T) {
	// 2*x + 1 == 21, so x == 10.
	x := expr.Var("x", 8)
	lhs := expr.Add(expr.Mul(x, expr.Const(2, 8)), expr.Const(1, 8))
	model := mustSat(t, []*expr.Expr{expr.Eq(lhs, expr.Const(21, 8))}, nil)
	if got := (2*model["x"] + 1) & 0xff; got != 21 {
		t.Errorf("2x+1 = %d, want 21 (x=%d)", got, model["x"])
	}
}

func TestSolveSeedGuidance(t *testing.T) {
	// The seed already satisfies the constraints; the solver must keep it.
	x := expr.Var("x", 16)
	y := expr.Var("y", 16)
	seed := expr.Assignment{"x": 179, "y": 65000}
	model := mustSat(t, []*expr.Expr{
		expr.Ugt(x, expr.Const(100, 16)),
		expr.Ugt(y, expr.Const(60000, 16)),
	}, seed)
	if model["x"] != 179 || model["y"] != 65000 {
		t.Errorf("solver should preserve satisfying seed, got %v", model)
	}
}

func TestSolveNegatedBranchTypical(t *testing.T) {
	// The typical concolic query: keep a prefix of constraints that the seed
	// satisfies and flip the last one.
	b0 := expr.Var("in[0]", 8)
	b1 := expr.Var("in[1]", 8)
	seed := expr.Assignment{"in[0]": 2, "in[1]": 0}
	constraints := []*expr.Expr{
		expr.Eq(b0, expr.Const(2, 8)),           // message type stays 2
		expr.Not(expr.Eq(b1, expr.Const(0, 8))), // flip: attr flags != 0
		expr.Ult(b1, expr.Const(0x80, 8)),       // but stay below 0x80
	}
	model := mustSat(t, constraints, seed)
	if model["in[0]"] != 2 {
		t.Errorf("prefix constraint violated: %v", model)
	}
	if model["in[1]"] == 0 || model["in[1]"] >= 0x80 {
		t.Errorf("negated branch not honoured: %v", model)
	}
}

func TestSolveZExtComparison(t *testing.T) {
	b := expr.Var("len", 8)
	wide := expr.ZExt(b, 16)
	model := mustSat(t, []*expr.Expr{
		expr.Ugt(wide, expr.Const(24, 16)),
		expr.Ule(wide, expr.Const(32, 16)),
	}, nil)
	if model["len"] <= 24 || model["len"] > 32 {
		t.Errorf("len = %d, want in (24,32]", model["len"])
	}
}

func TestSolveManyByteVariables(t *testing.T) {
	// Model a 16-byte symbolic region where a handful of bytes are
	// constrained, as happens for BGP UPDATE attribute parsing.
	var constraints []*expr.Expr
	seed := expr.Assignment{}
	for i := 0; i < 16; i++ {
		seed[byteVar(i).Name] = 0
	}
	constraints = append(constraints,
		expr.Eq(byteVar(0), expr.Const(0x40, 8)), // attr flags
		expr.Eq(byteVar(1), expr.Const(5, 8)),    // attr type LOCAL_PREF
		expr.Eq(byteVar(2), expr.Const(4, 8)),    // length
		expr.Ugt(byteVar(6), expr.Const(100, 8)), // low byte of pref > 100
		expr.Ult(byteVar(6), expr.Const(200, 8)), // and < 200
	)
	model := mustSat(t, constraints, seed)
	if model["in[0]"] != 0x40 || model["in[1]"] != 5 || model["in[2]"] != 4 {
		t.Errorf("fixed bytes wrong: %v", model)
	}
	if model["in[6]"] <= 100 || model["in[6]"] >= 200 {
		t.Errorf("in[6] = %d, want in (100,200)", model["in[6]"])
	}
	// Unconstrained bytes are left out of the model, so they keep their
	// seed value.
	if v, ok := model["in[9]"]; ok {
		t.Errorf("unconstrained byte bound by the model: %v", v)
	}
}

func byteVar(i int) *expr.Expr {
	return expr.Var("in["+itoa(i)+"]", 8)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestSolveDeterministic(t *testing.T) {
	x := expr.Var("x", 8)
	y := expr.Var("y", 8)
	cs := []*expr.Expr{
		expr.Ugt(expr.Add(x, y), expr.Const(50, 8)),
		expr.Ult(x, expr.Const(100, 8)),
	}
	a := Solve(cs, nil, Options{Seed: 7})
	b := Solve(cs, nil, Options{Seed: 7})
	if !a.Sat() || !b.Sat() {
		t.Fatalf("expected sat")
	}
	if a.Model["x"] != b.Model["x"] || a.Model["y"] != b.Model["y"] {
		t.Errorf("solver not deterministic: %v vs %v", a.Model, b.Model)
	}
}

func TestSolveBudgetExhaustionReportsUnknown(t *testing.T) {
	// A hard constraint with a tiny budget should report unknown, not hang.
	x := expr.Var("x", 32)
	y := expr.Var("y", 32)
	cs := []*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(7919*7907, 32)),
		expr.Ugt(x, expr.Const(1, 32)),
		expr.Ugt(y, expr.Const(1, 32)),
		expr.Ult(x, expr.Const(7919*7907, 32)),
	}
	res := Solve(cs, nil, Options{MaxSteps: 16, MaxEnumerate: 16})
	if res.Status == StatusUnsat {
		t.Fatalf("must not claim unsat for a satisfiable formula")
	}
}

// Property: whenever the solver claims SAT, the model really satisfies every
// constraint (checked for randomly generated interval constraints).
func TestQuickSatModelsAreValid(t *testing.T) {
	f := func(lo, hi, other uint8) bool {
		x := expr.Var("x", 8)
		y := expr.Var("y", 8)
		cs := []*expr.Expr{
			expr.Uge(x, expr.Const(uint64(minU8(lo, hi)), 8)),
			expr.Ule(x, expr.Const(uint64(maxU8(lo, hi)), 8)),
			expr.Eq(y, expr.Const(uint64(other), 8)),
		}
		res := Solve(cs, nil, Options{})
		if !res.Sat() {
			return false
		}
		for _, c := range cs {
			if !c.EvalBool(res.Model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: contradictory equalities are always reported unsat.
func TestQuickContradictionUnsat(t *testing.T) {
	f := func(a, b uint8) bool {
		if a == b {
			return true
		}
		x := expr.Var("x", 8)
		cs := []*expr.Expr{
			expr.Eq(x, expr.Const(uint64(a), 8)),
			expr.Eq(x, expr.Const(uint64(b), 8)),
		}
		res := Solve(cs, nil, Options{})
		return res.Status == StatusUnsat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func minU8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

func maxU8(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}
