// Package procdriver runs any registered router backend out of process: a
// proxy implementing node.Router forwards every interaction over a framed
// stdin/stdout protocol to a child process (a re-exec of the current binary)
// hosting the real speaker, and serves state reads from a local mirror
// restored out of the child's canonical checkpoints. Registering the driver
// as "proc:<impl>" makes process isolation a deployment choice: the cluster,
// clone pool, checker and distributed agents drive the subprocess exactly as
// they drive an in-process node, and its detections are byte-identical.
//
// The driver keeps the two properties the differential oracle depends on:
// controllability — the child sees only what the parent ships (virtual time,
// delivered messages, timer expiries), never real time or randomness — and
// observability — every side effect (sends, timer arms, log lines) crosses
// back as an ordered effect stream applied to the parent's emulator, and
// every piece of router state is read through the same canonical checkpoint
// codec the snapshot store uses. A child crash or stall is detected, the
// proxy goes permanently unhealthy, and the campaign layer surfaces it as a
// unit error instead of hanging or fabricating results.
package procdriver

import (
	"io"
	"sort"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/node"
)

// maxExprDepth bounds expression nesting on decode. Parsed UPDATE
// constraints are a few levels deep; the bound only exists so corrupt input
// cannot drive unbounded recursion.
const maxExprDepth = 1024

// writeFrame emits one pipe frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := codec.WriteFrame(w, kind, payload)
	return err
}

// readFrame reads one pipe frame. The error wraps io.EOF when the stream
// ends cleanly between frames (how a child notices the parent is gone).
func readFrame(r io.Reader) (byte, []byte, error) {
	return codec.ReadFrame(r, codec.Proc)
}

//
// Expression, value and update codecs. Everything the concolic layer ships
// across the boundary is encoded with the checkpoint codec primitives so the
// frames are deterministic and non-panicking to decode, like every other
// cross-process artifact.
//

func encodeExpr(w *codec.Writer, e *expr.Expr) {
	if e == nil {
		w.Byte(byte(expr.KindInvalid))
		return
	}
	w.Byte(byte(e.Kind))
	w.Byte(e.Width)
	w.Uvarint(e.Val)
	w.String(e.Name)
	w.Uvarint(uint64(len(e.Args)))
	for _, a := range e.Args {
		encodeExpr(w, a)
	}
}

func decodeExpr(r *codec.Reader, depth int) *expr.Expr {
	k := r.Byte()
	if r.Err() != nil || k == byte(expr.KindInvalid) {
		return nil
	}
	if k > byte(expr.KindIte) {
		r.Fail("expression kind %d out of range", k)
		return nil
	}
	if depth >= maxExprDepth {
		r.Fail("expression nesting exceeds %d", maxExprDepth)
		return nil
	}
	e := &expr.Expr{Kind: expr.Kind(k), Width: r.Byte(), Val: r.Uvarint(), Name: r.String()}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		e.Args = append(e.Args, decodeExpr(r, depth+1))
	}
	return e
}

func encodeValue(w *codec.Writer, v concolic.Value) {
	w.Uvarint(v.Concrete)
	w.Byte(v.Width)
	encodeExpr(w, v.Sym)
}

func decodeValue(r *codec.Reader) concolic.Value {
	return concolic.Value{Concrete: r.Uvarint(), Width: r.Byte(), Sym: decodeExpr(r, 0)}
}

func encodeSymPrefixes(w *codec.Writer, ps []bgp.SymPrefix) {
	w.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		encodeValue(w, p.Len)
		encodeValue(w, p.Addr)
	}
}

func decodeSymPrefixes(r *codec.Reader) []bgp.SymPrefix {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]bgp.SymPrefix, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, bgp.SymPrefix{Len: decodeValue(r), Addr: decodeValue(r)})
	}
	return out
}

func encodeSymUpdate(w *codec.Writer, s *bgp.SymUpdate) {
	if s == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	encodeValue(w, s.Origin)
	w.Bool(s.HasOrigin)
	encodeValue(w, s.LocalPref)
	w.Bool(s.HasLocalPref)
	encodeValue(w, s.MED)
	w.Bool(s.HasMED)
	encodeValue(w, s.NextHop)
	w.Bool(s.HasNextHop)
	encodeValue(w, s.ASPathLen)
	encodeSymPrefixes(w, s.NLRI)
	encodeSymPrefixes(w, s.Withdrawn)
	w.Uvarint(uint64(len(s.Communities)))
	for _, c := range s.Communities {
		encodeValue(w, c)
	}
}

func decodeSymUpdate(r *codec.Reader) *bgp.SymUpdate {
	if !r.Bool() || r.Err() != nil {
		return nil
	}
	s := &bgp.SymUpdate{}
	s.Origin = decodeValue(r)
	s.HasOrigin = r.Bool()
	s.LocalPref = decodeValue(r)
	s.HasLocalPref = r.Bool()
	s.MED = decodeValue(r)
	s.HasMED = r.Bool()
	s.NextHop = decodeValue(r)
	s.HasNextHop = r.Bool()
	s.ASPathLen = decodeValue(r)
	s.NLRI = decodeSymPrefixes(r)
	s.Withdrawn = decodeSymPrefixes(r)
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Communities = append(s.Communities, decodeValue(r))
	}
	return s
}

//
// Trace codec. Maps travel in sorted key order so identical traces encode to
// identical bytes.
//

func encodeTrace(w *codec.Writer, t *concolic.Trace) {
	if t == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Uvarint(uint64(len(t.Branches)))
	for _, b := range t.Branches {
		w.String(b.Site)
		w.Bool(b.Taken)
		encodeExpr(w, b.Cond)
	}
	names := make([]string, 0, len(t.Assignment))
	for name := range t.Assignment {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		w.Uvarint(t.Assignment[name])
	}
	names = names[:0]
	for name := range t.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		ref := t.Vars[name]
		w.String(name)
		w.String(ref.Region)
		w.Uvarint(uint64(ref.Index))
	}
	codec.PutBlobMap(w, t.Regions)
	w.Bool(t.Truncated)
}

func decodeTrace(r *codec.Reader) *concolic.Trace {
	if !r.Bool() || r.Err() != nil {
		return nil
	}
	t := &concolic.Trace{
		Assignment: make(expr.Assignment),
		Vars:       make(map[string]concolic.VarRef),
	}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		t.Branches = append(t.Branches, concolic.Branch{Site: r.String(), Taken: r.Bool(), Cond: decodeExpr(r, 0)})
	}
	n = r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		t.Assignment[name] = r.Uvarint()
	}
	n = r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		t.Vars[name] = concolic.VarRef{Region: r.String(), Index: int(r.Uvarint())}
	}
	t.Regions = codec.BlobMap(r)
	t.Truncated = r.Bool()
	return t
}

//
// Config codec. Policies cross the boundary in the policy language's text
// form — String∘ParsePolicy is the same lossless round-trip the dialect
// renderers rely on — so no reflection-driven encoding touches the
// Condition/Action interfaces.
//

func encodeConfig(w *codec.Writer, cfg *node.Config) {
	w.String(cfg.Name)
	w.Uvarint(uint64(cfg.AS))
	w.Uvarint(uint64(cfg.RouterID))
	w.Uvarint(uint64(len(cfg.Networks)))
	for _, p := range cfg.Networks {
		w.Uvarint(uint64(p.Addr))
		w.Byte(p.Len)
	}
	w.Uvarint(uint64(len(cfg.Neighbors)))
	for _, n := range cfg.Neighbors {
		w.String(n.Name)
		w.Uvarint(uint64(n.AS))
		w.String(n.Import)
		w.String(n.Export)
	}
	names := make([]string, 0, len(cfg.Policies))
	for name := range cfg.Policies {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		w.String(cfg.Policies[name].String())
	}
	w.Uvarint(uint64(cfg.HoldTime))
	w.Uvarint(uint64(cfg.KeepaliveInterval))
	w.Uvarint(uint64(cfg.ConnectRetry))
}

func decodeConfig(r *codec.Reader) *node.Config {
	cfg := &node.Config{
		Name:     r.String(),
		AS:       bgp.ASN(r.Uvarint()),
		RouterID: bgp.RouterID(r.Uvarint()),
	}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		cfg.Networks = append(cfg.Networks, bgp.Prefix{Addr: uint32(r.Uvarint()), Len: r.Byte()})
	}
	n = r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		cfg.Neighbors = append(cfg.Neighbors, node.NeighborConfig{
			Name: r.String(), AS: bgp.ASN(r.Uvarint()), Import: r.String(), Export: r.String(),
		})
	}
	n = r.Count()
	if n > 0 {
		cfg.Policies = make(map[string]*policy.Policy, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		text := r.String()
		if r.Err() != nil {
			break
		}
		p, err := policy.ParsePolicy(text)
		if err != nil {
			r.Fail("policy %q does not parse: %v", name, err)
			break
		}
		cfg.Policies[name] = p
	}
	cfg.HoldTime = time.Duration(r.Uvarint())
	cfg.KeepaliveInterval = time.Duration(r.Uvarint())
	cfg.ConnectRetry = time.Duration(r.Uvarint())
	return cfg
}
