// Package solver finds concrete variable assignments that satisfy path
// conditions produced by the concolic engine.
//
// Path conditions are conjunctions of boolean expressions from package expr
// over fixed-width bitvector variables (for DiCE, mostly the bytes of a BGP
// UPDATE message). Concolic exploration asks many queries of one shape: keep
// the first i conditions of an executed path and negate condition i. A
// Session answers that sequence from one path, so each query pays for the
// flipped branch rather than for the whole prefix:
//
//  1. interval, equality and exclusion propagation over constraints that
//     relate a single variable to a constant establishes per-variable
//     domains. The session runs it over the path once, one conjunct at a
//     time; a query copies only the flipped conjunct's variables, applies
//     the flip, and often proves the query unsatisfiable outright;
//  2. the base assignment (the seed, clamped into every domain) is checked
//     against a satisfied bit kept per prefix conjunct, re-evaluating only
//     the conjuncts that mention a variable the flip moved;
//  3. candidate-set enumeration: for small residual search spaces the solver
//     enumerates combinations of "interesting" values (domain bounds,
//     constants mentioned by the constraints, the seed value, and nearby
//     values), which is complete for the byte-level comparisons produced by
//     protocol handlers;
//  4. greedy local search from the base assignment handles larger spaces
//     within a configurable step budget. Each trial re-evaluates only the
//     constraints that mention the variable it changed.
//
// Every query replays one recorded pseudo-random stream from its start, so a
// session query returns exactly what a fresh Solve of the same conjunction
// returns: the same status, model and step count. Solve is a session of one
// query. The solver is deterministic for a given seed, which keeps concolic
// exploration reproducible.
package solver

import (
	"math/rand"
	"slices"
	"sort"

	"github.com/dice-project/dice/internal/concolic/expr"
)

// Options configure a Solve call.
type Options struct {
	// MaxSteps bounds the number of candidate assignments evaluated during
	// the search phases. Zero selects a default of 4096.
	MaxSteps int
	// MaxEnumerate bounds the size of the cartesian candidate product that
	// the exhaustive phase is willing to enumerate. Zero selects 65536.
	MaxEnumerate int
	// Seed seeds the deterministic pseudo-random generator used to break
	// ties and to sample values inside large domains.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 4096
	}
	if o.MaxEnumerate <= 0 {
		o.MaxEnumerate = 65536
	}
	return o
}

// Status describes the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// StatusSat means a satisfying model was found.
	StatusSat Status = iota
	// StatusUnsat means the conjunction was proven unsatisfiable.
	StatusUnsat
	// StatusUnknown means the budget was exhausted without a verdict.
	StatusUnknown
)

// String returns a human-readable form of the status.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	}
	return "invalid"
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	// Model is a satisfying assignment when Status == StatusSat. It binds
	// exactly the variables the constraints mention; every other variable
	// keeps its seed value (concolic.Machine.ApplyModel leaves its byte).
	Model expr.Assignment
	// Steps is the number of candidate assignments that were evaluated.
	Steps int
}

// Sat reports whether the result carries a model.
func (r Result) Sat() bool { return r.Status == StatusSat }

// interval is an inclusive unsigned range.
type interval struct {
	lo, hi uint64
}

func fullInterval(width uint8) interval {
	if width >= 64 {
		return interval{0, ^uint64(0)}
	}
	return interval{0, (uint64(1) << width) - 1}
}

func (iv interval) empty() bool { return iv.lo > iv.hi }

// Solve searches for an assignment satisfying the conjunction of constraints.
// The seed assignment (typically the concrete values observed on the previous
// execution) guides the search; it may be nil.
func Solve(constraints []*expr.Expr, seed expr.Assignment, opts Options) Result {
	s := NewSession(opts)
	s.Reset(constraints, seed)
	return s.Query(len(constraints), nil)
}

// stream is the Int63 sequence of rand.NewSource(seed), recorded as far as
// any query has read it, so the source is seeded once per session instead of
// once per query.
type stream struct {
	src  rand.Source
	vals []int64
}

// at returns the draw at position pos.
func (s *stream) at(pos int) int64 {
	for len(s.vals) <= pos {
		s.vals = append(s.vals, s.src.Int63())
	}
	return s.vals[pos]
}

// replay is a rand.Source that reads a stream from a position: rand.New over
// a replay at position 0 draws exactly what rand.New(rand.NewSource(seed))
// draws.
type replay struct {
	s   *stream
	pos int
}

func newReplay(seed int64) replay { return replay{s: &stream{src: rand.NewSource(seed)}} }

// Int63 returns the next draw of the stream.
func (r *replay) Int63() int64 {
	v := r.s.at(r.pos)
	r.pos++
	return v
}

// Seed restarts the replay on the stream of another seed.
func (r *replay) Seed(seed int64) { *r = newReplay(seed) }

// varInfo is what propagation learned about one variable.
type varInfo struct {
	name  string
	width uint8
	// raw is the domain the constraints allow; dom is raw with excluded
	// endpoints shrunk away, the domain the search draws from.
	raw, dom interval
	// excluded holds the distinct values Ne constraints rule out.
	excluded []uint64
	// interesting holds the distinct constants of the constraints mentioning
	// the variable; they (and their neighbours) are prime candidate values.
	interesting []uint64
	seed        uint64
	hasSeed     bool
	// base is the seed value when dom admits it, else dom.lo.
	base uint64

	// inPrefix marks a variable of the session's propagated prefix; conj
	// lists the prefix conjuncts that mention it, in path order.
	inPrefix bool
	conj     []int32
	// flip is 1 + the index of the variable's copy in the current query's
	// flip views, 0 when the query's last conjunct does not mention it; pos
	// is its position in the query's sorted variable list.
	flip int32
	pos  int32
}

// baseValue returns the seed value when the domain admits it, else the
// domain's lower bound.
func (vi *varInfo) baseValue() uint64 {
	if vi.hasSeed && vi.seed >= vi.dom.lo && vi.seed <= vi.dom.hi && !slices.Contains(vi.excluded, vi.seed) {
		return vi.seed
	}
	return vi.dom.lo
}

// shrink returns raw with the excluded values at its endpoints cut away.
func shrink(raw interval, excluded []uint64) interval {
	d := raw
	for slices.Contains(excluded, d.lo) && !d.empty() {
		d.lo++
	}
	for !d.empty() && slices.Contains(excluded, d.hi) && d.hi > 0 {
		d.hi--
	}
	return d
}

func addUnique(set []uint64, v uint64) []uint64 {
	if slices.Contains(set, v) {
		return set
	}
	return append(set, v)
}

// conjunct is one constraint analysed once: its variables, its constants
// and, when it relates a single variable to a constant, that relation.
type conjunct struct {
	e *expr.Expr
	// vars are the variable ids sorted by name (expr.VarNames order) and
	// widths the width of each at its last occurrence.
	vars   []int32
	widths []uint8
	consts []uint64
	// v is the variable of an (op var k) or (op k var) shape modulo ZExt,
	// -1 for any other shape.
	v       int32
	k       uint64
	varLeft bool
}

// apply folds the conjunct into what is known about variable id.
func (c *conjunct) apply(vi *varInfo, id int32) {
	for _, k := range c.consts {
		vi.interesting = addUnique(vi.interesting, k)
	}
	if c.v != id {
		return
	}
	k := c.k
	switch c.e.Kind {
	case expr.KindEq:
		if k > vi.raw.hi || k < vi.raw.lo {
			vi.raw = interval{1, 0} // empty
			return
		}
		vi.raw = interval{k, k}
	case expr.KindNe:
		vi.excluded = addUnique(vi.excluded, k)
	case expr.KindUlt:
		if c.varLeft { // var < k
			if k == 0 {
				vi.raw = interval{1, 0}
				return
			}
			vi.raw.hi = min(vi.raw.hi, k-1)
		} else { // k < var
			vi.raw.lo = max(vi.raw.lo, k+1)
		}
	case expr.KindUle:
		if c.varLeft {
			vi.raw.hi = min(vi.raw.hi, k)
		} else {
			vi.raw.lo = max(vi.raw.lo, k)
		}
	case expr.KindUgt:
		if c.varLeft { // var > k
			vi.raw.lo = max(vi.raw.lo, k+1)
		} else { // k > var
			if k == 0 {
				vi.raw = interval{1, 0}
				return
			}
			vi.raw.hi = min(vi.raw.hi, k-1)
		}
	case expr.KindUge:
		if c.varLeft {
			vi.raw.lo = max(vi.raw.lo, k)
		} else {
			vi.raw.hi = min(vi.raw.hi, k)
		}
	}
}

// stripZExt unwraps zero extensions: the value of ZExt(x) equals the value of
// x, so comparisons against constants transfer directly.
func stripZExt(e *expr.Expr) *expr.Expr {
	for e.Kind == expr.KindZExt {
		e = e.Args[0]
	}
	return e
}

// A Session answers queries over one path condition: Query(n, last) solves
// the first n conjuncts of the path and last, exactly as Solve would. The
// path is propagated once, in order, as far as the queries reach, so a query
// costs what its last conjunct and its search cost. A session is reused
// across paths with Reset and is not safe for concurrent use.
type Session struct {
	opts Options
	// src replays the stream of rand.NewSource(opts.Seed); rng draws
	// through it.
	src replay
	rng *rand.Rand

	path []*expr.Expr
	seed expr.Assignment

	// The propagated prefix, path[:n].
	n     int
	unsat bool // path[:n] holds a constant-false conjunct
	conj  []conjunct
	ids   map[string]int32
	vars  []varInfo
	order []int32 // ids of the prefix variables, sorted by name
	empty int     // prefix variables whose domain is empty
	// asn holds the base value of every prefix variable, sat whether each
	// prefix conjunct holds under it and falses how many do not.
	asn    expr.Assignment
	sat    []bool
	falses int

	// Backing arrays of the conjuncts' slices.
	idArena []int32
	wArena  []uint8
	kArena  []uint64

	// Per-query state.
	q      uint32 // query counter, stamps mark and candQ
	mark   []uint32
	last   *expr.Expr
	lastC  conjunct
	views  []varInfo // copies of the last conjunct's variables
	reeval []int32
	names  []int32    // ids of the query's variables, sorted by name
	infos  []*varInfo // what the query knows about names[p]
	qc     []*expr.Expr
	bits   []bool // bits[j]: qc[j] holds under the search's current assignment
	moved  []int32
	offs   []int // offs[p]: stream position of names[p]'s candidate draws
	draws  int   // stream position where local search starts drawing
	cands  [][]uint64
	candQ  []uint32
	vals   []uint64
	idx    []int
}

// NewSession returns a session that answers queries with opts.
func NewSession(opts Options) *Session {
	s := &Session{
		opts: opts.withDefaults(),
		ids:  make(map[string]int32),
		asn:  make(expr.Assignment),
	}
	s.src = newReplay(s.opts.Seed)
	s.rng = rand.New(&s.src)
	return s
}

// Reset starts a new path. The session reads path and seed until the next
// Reset; neither may change meanwhile.
func (s *Session) Reset(path []*expr.Expr, seed expr.Assignment) {
	s.path, s.seed = path, seed
	s.rewind()
}

func (s *Session) rewind() {
	s.n, s.unsat, s.empty, s.falses = 0, false, 0, 0
	s.conj, s.sat, s.mark = s.conj[:0], s.sat[:0], s.mark[:0]
	s.vars, s.order = s.vars[:0], s.order[:0]
	s.idArena, s.wArena, s.kArena = s.idArena[:0], s.wArena[:0], s.kArena[:0]
	clear(s.ids)
	clear(s.asn)
}

// Query solves the conjunction of the first n conjuncts of the path and last
// (nil for none). Queries are cheapest in increasing n; a smaller n than the
// previous query's re-propagates the path from its start.
func (s *Session) Query(n int, last *expr.Expr) Result {
	if n < s.n {
		s.rewind()
	}
	s.extend(n)
	if last != nil && last.Kind == expr.KindBool {
		if last.Val == 0 {
			return Result{Status: StatusUnsat}
		}
		last = nil
	}
	if s.unsat {
		return Result{Status: StatusUnsat}
	}
	if len(s.conj) == 0 && last == nil {
		return Result{Status: StatusSat, Model: expr.Assignment{}}
	}
	s.q++
	s.last = last
	ids, ws, ks := len(s.idArena), len(s.wArena), len(s.kArena)
	res := s.solve()
	// Hand the prefix back exactly as the query found it.
	if last != nil {
		for _, id := range s.lastC.vars {
			vi := &s.vars[id]
			vi.flip = 0
			if vi.inPrefix {
				s.asn[vi.name] = vi.base
			} else {
				delete(s.asn, vi.name)
			}
		}
	}
	s.idArena, s.wArena, s.kArena = s.idArena[:ids], s.wArena[:ws], s.kArena[:ks]
	return res
}

// extend propagates the prefix to path[:n], one conjunct at a time.
func (s *Session) extend(n int) {
	for ; s.n < n; s.n++ {
		e := s.path[s.n]
		if e == nil {
			continue
		}
		if e.Kind == expr.KindBool {
			if e.Val == 0 {
				s.unsat = true
			}
			continue
		}
		j := int32(len(s.conj))
		s.conj = append(s.conj, s.analyze(e))
		c := &s.conj[j]
		for t, id := range c.vars {
			vi := &s.vars[id]
			if !vi.inPrefix {
				s.enter(id, c.widths[t])
			} else if vi.width != c.widths[t] {
				s.refold(vi, id, c.widths[t], vi.conj)
			}
			c.apply(vi, id)
			vi.conj = append(vi.conj, j)
			s.settle(vi, j)
		}
		ok := e.EvalBool(s.asn)
		s.sat = append(s.sat, ok)
		s.mark = append(s.mark, 0)
		if !ok {
			s.falses++
		}
	}
}

// analyze walks e once for its variables and constants.
func (s *Session) analyze(e *expr.Expr) conjunct {
	i0, k0 := len(s.idArena), len(s.kArena)
	s.walk(e)
	ids, ws := s.idArena[i0:], s.wArena[i0:]
	// Keep each variable's last occurrence (its width is the one Vars
	// reports), then sort by name.
	n := 0
	for t, id := range ids {
		if !slices.Contains(ids[t+1:], id) {
			ids[n], ws[n] = id, ws[t]
			n++
		}
	}
	ids, ws = ids[:n:n], ws[:n:n]
	for t := 1; t < n; t++ {
		for u := t; u > 0 && s.vars[ids[u]].name < s.vars[ids[u-1]].name; u-- {
			ids[u], ids[u-1] = ids[u-1], ids[u]
			ws[u], ws[u-1] = ws[u-1], ws[u]
		}
	}
	s.idArena, s.wArena = s.idArena[:i0+n], s.wArena[:i0+n]
	c := conjunct{e: e, vars: ids, widths: ws, consts: s.kArena[k0:len(s.kArena):len(s.kArena)], v: -1}
	if len(e.Args) == 2 {
		a, b := stripZExt(e.Args[0]), stripZExt(e.Args[1])
		if a.Kind == expr.KindVar && b.IsConst() {
			c.v, c.k, c.varLeft = s.ids[a.Name], b.Val, true
		} else if b.Kind == expr.KindVar && a.IsConst() {
			c.v, c.k = s.ids[b.Name], a.Val
		}
	}
	return c
}

func (s *Session) walk(e *expr.Expr) {
	switch e.Kind {
	case expr.KindConst:
		s.kArena = append(s.kArena, e.Val)
	case expr.KindVar:
		s.idArena = append(s.idArena, s.id(e.Name))
		s.wArena = append(s.wArena, e.Width)
	}
	for _, arg := range e.Args {
		s.walk(arg)
	}
}

// id returns the variable's id, registering the variable on first sight.
func (s *Session) id(name string) int32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int32(len(s.vars))
	s.vars = nextInfo(s.vars)
	vi := &s.vars[id]
	sv, ok := s.seed[name]
	*vi = varInfo{name: name, seed: sv, hasSeed: ok, excluded: vi.excluded[:0], interesting: vi.interesting[:0], conj: vi.conj[:0]}
	s.ids[name] = id
	return id
}

// nextInfo extends vs by one element, keeping the element's slices from an
// earlier use for reuse.
func nextInfo(vs []varInfo) []varInfo {
	if len(vs) < cap(vs) {
		return vs[:len(vs)+1]
	}
	return append(vs, varInfo{})
}

// enter adds a variable to the prefix with its full domain.
func (s *Session) enter(id int32, width uint8) {
	vi := &s.vars[id]
	vi.inPrefix, vi.width = true, width
	vi.raw = fullInterval(width)
	vi.dom = vi.raw
	vi.excluded, vi.interesting, vi.conj = vi.excluded[:0], vi.interesting[:0], vi.conj[:0]
	vi.base = vi.baseValue()
	s.asn[vi.name] = vi.base
	i := sort.Search(len(s.order), func(i int) bool { return s.vars[s.order[i]].name >= vi.name })
	s.order = slices.Insert(s.order, i, id)
}

// refold recomputes vi from its full domain at another width over the
// prefix conjuncts conj: a variable's initial domain follows its width at
// its last occurrence in the conjunction.
func (s *Session) refold(vi *varInfo, id int32, width uint8, conj []int32) {
	vi.width = width
	vi.raw = fullInterval(width)
	vi.excluded, vi.interesting = vi.excluded[:0], vi.interesting[:0]
	for _, j := range conj {
		s.conj[j].apply(vi, id)
	}
}

// settle shrinks a prefix variable's domain after conjunct self changed it
// and, when its base value moves, re-evaluates the other prefix conjuncts
// that mention it.
func (s *Session) settle(vi *varInfo, self int32) {
	was := vi.dom.empty()
	vi.dom = shrink(vi.raw, vi.excluded)
	if now := vi.dom.empty(); now != was {
		if now {
			s.empty++
		} else {
			s.empty--
		}
	}
	b := vi.baseValue()
	if b == vi.base {
		return
	}
	vi.base = b
	s.asn[vi.name] = b
	for _, j := range vi.conj {
		if j == self {
			continue
		}
		if ok := s.conj[j].e.EvalBool(s.asn); ok != s.sat[j] {
			s.sat[j] = ok
			if ok {
				s.falses--
			} else {
				s.falses++
			}
		}
	}
}

// solve answers the query over the propagated prefix and s.last.
func (s *Session) solve() Result {
	nvars, empty := len(s.order), s.empty
	s.views = s.views[:0]
	if s.last != nil {
		s.lastC = s.analyze(s.last)
		c := &s.lastC
		for t, id := range c.vars {
			vi := &s.vars[id]
			s.views = nextInfo(s.views)
			w := &s.views[t]
			*w = varInfo{name: vi.name, seed: vi.seed, hasSeed: vi.hasSeed, excluded: w.excluded[:0], interesting: w.interesting[:0]}
			if vi.inPrefix && vi.width == c.widths[t] {
				w.width, w.raw = vi.width, vi.raw
				w.excluded = append(w.excluded, vi.excluded...)
				w.interesting = append(w.interesting, vi.interesting...)
			} else if vi.inPrefix {
				s.refold(w, id, c.widths[t], vi.conj)
			} else {
				s.refold(w, id, c.widths[t], nil)
			}
			c.apply(w, id)
			w.dom = shrink(w.raw, w.excluded)
			w.base = w.baseValue()
			vi.flip = int32(t + 1)
			if !vi.inPrefix {
				nvars++
			} else if vi.dom.empty() {
				empty--
			}
			if w.dom.empty() {
				empty++
			}
		}
	}
	if nvars == 0 {
		// Non-constant constraints with no variables cannot occur; treat as
		// unknown defensively.
		return Result{Status: StatusUnknown}
	}
	if empty > 0 {
		return Result{Status: StatusUnsat}
	}

	// The base assignment: the prefix's, with the flipped variables moved.
	s.reeval = s.reeval[:0]
	if s.last != nil {
		for t, id := range s.lastC.vars {
			vi, w := &s.vars[id], &s.views[t]
			if vi.inPrefix && w.base == vi.base {
				continue
			}
			s.asn[vi.name] = w.base
			for _, j := range vi.conj {
				if s.mark[j] != s.q {
					s.mark[j] = s.q
					s.reeval = append(s.reeval, j)
				}
			}
		}
	}
	s.bits = append(s.bits[:0], s.sat...)
	falses := s.falses
	for _, j := range s.reeval {
		if ok := s.conj[j].e.EvalBool(s.asn); ok != s.bits[j] {
			s.bits[j] = ok
			if ok {
				falses--
			} else {
				falses++
			}
		}
	}
	s.qc = s.qc[:0]
	for j := range s.conj {
		s.qc = append(s.qc, s.conj[j].e)
	}
	if s.last != nil {
		ok := s.last.EvalBool(s.asn)
		s.qc = append(s.qc, s.last)
		s.bits = append(s.bits, ok)
		if !ok {
			falses++
		}
	}
	if falses == 0 {
		return Result{Status: StatusSat, Model: s.asn.Clone()}
	}

	s.queryVars()
	steps := 0
	product := 1
	feasible := true
	for p := range s.names {
		cs := s.candidates(p)
		if len(cs) == 0 {
			feasible = false
			break
		}
		product *= len(cs)
		if product > s.opts.MaxEnumerate {
			feasible = false
			break
		}
	}
	if feasible {
		model, n := s.enumerate(s.asn.Clone(), s.opts.MaxEnumerate)
		steps += n
		if model != nil {
			return Result{Status: StatusSat, Model: model, Steps: steps}
		}
		// Enumeration over candidate sets is not complete in general (the
		// sets are samples of large domains), so fall through to search
		// unless every domain was fully covered by its candidate set.
		if s.fullCoverage() {
			return Result{Status: StatusUnsat, Steps: steps}
		}
	}

	model, n := s.localSearch(s.asn.Clone(), s.opts.MaxSteps-steps, len(s.qc)-falses)
	steps += n
	if model != nil {
		return Result{Status: StatusSat, Model: model, Steps: steps}
	}
	return Result{Status: StatusUnknown, Steps: steps}
}

// queryVars lists the query's variables by name — the prefix's merged with
// the ones only the last conjunct mentions — and lays out where each one's
// candidate draws sit in the stream.
func (s *Session) queryVars() {
	s.names, s.infos = s.names[:0], s.infos[:0]
	add := func(id int32) {
		vi := &s.vars[id]
		vi.pos = int32(len(s.names))
		s.names = append(s.names, id)
		if vi.flip != 0 {
			s.infos = append(s.infos, &s.views[vi.flip-1])
		} else {
			s.infos = append(s.infos, vi)
		}
	}
	i := 0
	if s.last != nil {
		for _, id := range s.lastC.vars {
			if s.vars[id].inPrefix {
				continue
			}
			for i < len(s.order) && s.vars[s.order[i]].name < s.vars[id].name {
				add(s.order[i])
				i++
			}
			add(id)
		}
	}
	for ; i < len(s.order); i++ {
		add(s.order[i])
	}
	// Candidate sets draw 8 values for every variable whose domain is too
	// large to list, in name order; local search draws after all of them.
	s.offs, s.draws = s.offs[:0], 0
	for _, vi := range s.infos {
		s.offs = append(s.offs, s.draws)
		if vi.dom.hi-vi.dom.lo >= 64 {
			s.draws += 8
		}
	}
	for len(s.cands) < len(s.names) {
		s.cands = append(s.cands, nil)
		s.candQ = append(s.candQ, 0)
	}
}

// candidates returns the ordered candidate values of names[p]: its domain
// bounds, the constants mentioned alongside it and their neighbours, its
// seed value, and either its whole domain when small or 8 pseudo-random
// samples. Sets are built on first use in a query.
func (s *Session) candidates(p int) []uint64 {
	if s.candQ[p] == s.q {
		return s.cands[p]
	}
	vi := s.infos[p]
	lo, hi := vi.dom.lo, vi.dom.hi
	cs := s.cands[p][:0]
	add := func(v uint64) {
		if v >= lo && v <= hi && !slices.Contains(vi.excluded, v) {
			cs = append(cs, v)
		}
	}
	if vi.hasSeed {
		add(vi.seed)
	}
	add(lo)
	add(hi)
	for _, k := range vi.interesting {
		add(k)
		add(k + 1)
		if k > 0 {
			add(k - 1)
		}
	}
	add(0)
	add(1)
	if hi-lo < 64 {
		for v := lo; ; v++ {
			add(v)
			if v == hi {
				break
			}
		}
	} else {
		for j := 0; j < 8; j++ {
			add(lo + uint64(s.src.s.at(s.offs[p]+j))%(hi-lo))
		}
	}
	slices.Sort(cs)
	cs = slices.Compact(cs)
	s.cands[p], s.candQ[p] = cs, s.q
	return cs
}

// fullCoverage reports whether every candidate set lists its whole domain.
func (s *Session) fullCoverage() bool {
	for p, vi := range s.infos {
		n := uint64(len(s.cands[p]))
		for _, v := range vi.excluded {
			if v >= vi.dom.lo && v <= vi.dom.hi {
				n++
			}
		}
		// Covered + excluded >= hi-lo+1, without forming hi-lo+1 (it wraps
		// to 0 on a full 64-bit domain).
		if n == 0 || n-1 < vi.dom.hi-vi.dom.lo {
			return false
		}
	}
	return true
}

// enumerate exhaustively tries every combination from the candidate sets,
// bounded by budget assignments.
func (s *Session) enumerate(cur expr.Assignment, budget int) (expr.Assignment, int) {
	s.idx = s.idx[:0]
	for range s.names {
		s.idx = append(s.idx, 0)
	}
	idx := s.idx
	steps := 0
	// set is how many leading positions changed since the last combination.
	set := len(idx)
	for {
		for p := 0; p < set; p++ {
			cur[s.infos[p].name] = s.cands[p][idx[p]]
		}
		steps++
		if satisfiesAll(s.qc, cur) {
			return cur, steps
		}
		if steps >= budget {
			return nil, steps
		}
		// Advance the mixed-radix counter.
		pos := 0
		for pos < len(idx) {
			idx[pos]++
			if idx[pos] < len(s.cands[pos]) {
				break
			}
			idx[pos] = 0
			pos++
		}
		if pos == len(idx) {
			return nil, steps
		}
		set = pos + 1
	}
}

func satisfiesAll(constraints []*expr.Expr, a expr.Assignment) bool {
	for _, c := range constraints {
		if !c.EvalBool(a) {
			return false
		}
	}
	return true
}

// localSearch performs a greedy hill-climb from cur, which satisfies nsat of
// the query's constraints: repeatedly pick the first violated constraint and
// try values for each of its variables, keeping the first change that
// satisfies more constraints. Random restarts escape local optima.
func (s *Session) localSearch(cur expr.Assignment, budget, nsat int) (expr.Assignment, int) {
	if budget <= 0 {
		return nil, 0
	}
	s.src.pos = s.draws
	steps := 0
	for steps < budget {
		if nsat == len(s.qc) {
			return cur, steps
		}
		j := slices.Index(s.bits, false)
		vars := s.lastC.vars
		if j < len(s.conj) {
			vars = s.conj[j].vars
		}
		improved := false
		for _, id := range vars {
			p := s.vars[id].pos
			name := s.vars[id].name
			for _, v := range s.searchValues(p, cur[name]) {
				if v == cur[name] {
					continue
				}
				steps++
				old := cur[name]
				cur[name] = v
				if score := nsat + s.rescore(id, cur); score > nsat {
					s.commit()
					nsat = score
					improved = true
					break
				}
				cur[name] = old
				if steps >= budget {
					return nil, steps
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			// Random restart: perturb one variable of the violated constraint.
			if len(vars) == 0 {
				return nil, steps
			}
			id := vars[s.rng.Intn(len(vars))]
			cs := s.candidates(int(s.vars[id].pos))
			if len(cs) == 0 {
				return nil, steps
			}
			cur[s.vars[id].name] = cs[s.rng.Intn(len(cs))]
			nsat += s.rescore(id, cur)
			s.commit()
			steps++
		}
	}
	if nsat == len(s.qc) {
		return cur, steps
	}
	return nil, steps
}

// rescore re-evaluates the constraints that mention variable id under cur
// and returns the change in the number satisfied; commit keeps the new bits.
func (s *Session) rescore(id int32, cur expr.Assignment) int {
	s.moved = s.moved[:0]
	delta := 0
	check := func(j int32) {
		if ok := s.qc[j].EvalBool(cur); ok != s.bits[j] {
			s.moved = append(s.moved, j)
			if ok {
				delta++
			} else {
				delta--
			}
		}
	}
	vi := &s.vars[id]
	for _, j := range vi.conj {
		check(j)
	}
	if vi.flip != 0 {
		check(int32(len(s.conj)))
	}
	return delta
}

func (s *Session) commit() {
	for _, j := range s.moved {
		s.bits[j] = !s.bits[j]
	}
}

// searchValues returns the values worth trying for names[p]: the full
// domain when it is byte-sized (complete and cheap), otherwise the candidate
// set plus an exponential neighbourhood of the current value, which lets
// arithmetic relations over wide variables converge.
func (s *Session) searchValues(p int32, current uint64) []uint64 {
	vi := s.infos[p]
	vals := s.vals[:0]
	if vi.dom.hi-vi.dom.lo <= 256 {
		for v := vi.dom.lo; ; v++ {
			if !slices.Contains(vi.excluded, v) {
				vals = append(vals, v)
			}
			if v == vi.dom.hi {
				break
			}
		}
	} else {
		vals = append(vals, s.candidates(int(p))...)
		for delta := uint64(1); delta != 0 && delta <= vi.dom.hi-vi.dom.lo; delta <<= 1 {
			if current+delta >= current && current+delta <= vi.dom.hi {
				vals = append(vals, current+delta)
			}
			if current >= delta && current-delta >= vi.dom.lo {
				vals = append(vals, current-delta)
			}
		}
	}
	s.vals = vals
	return vals
}
