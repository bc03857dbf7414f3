package procdriver

import (
	"bytes"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/checkpoint/codec/codectest"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/node"
)

// pipeFrame is one decoded pipe frame. The three kinds whose payloads carry
// the structured codecs of wire.go (config, symbolic update, trace) are parsed
// into them; every other kind's payload stays opaque bytes.
type pipeFrame struct {
	kind       byte
	raw        []byte
	impl, from string
	cfg        *node.Config
	sym        *bgp.SymUpdate
	hasMachine bool
	trace      *concolic.Trace
}

func decodePipeFrame(data []byte) (*pipeFrame, error) {
	kind, payload, err := readFrame(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	f := &pipeFrame{kind: kind}
	r := codec.NewReader(payload)
	switch kind {
	case codec.KindProcBuild:
		f.impl, f.cfg = r.String(), decodeConfig(r)
	case codec.KindProcHook:
		f.from, f.raw, f.sym, f.hasMachine, f.trace = r.String(), r.Blob(), decodeSymUpdate(r), r.Bool(), decodeTrace(r)
	case codec.KindProcDone:
		f.trace, f.raw = decodeTrace(r), r.Blob()
	default:
		f.raw = payload
		return f, nil
	}
	return f, r.Close()
}

func encodePipeFrame(f *pipeFrame) ([]byte, error) {
	w := codec.NewWriter()
	switch f.kind {
	case codec.KindProcBuild:
		w.String(f.impl)
		encodeConfig(w, f.cfg)
	case codec.KindProcHook:
		w.String(f.from)
		w.Blob(f.raw)
		encodeSymUpdate(w, f.sym)
		w.Bool(f.hasMachine)
		encodeTrace(w, f.trace)
	case codec.KindProcDone:
		encodeTrace(w, f.trace)
		w.Blob(f.raw)
	default:
		w = nil
	}
	payload := f.raw
	if w != nil {
		payload = w.Bytes()
	}
	var buf bytes.Buffer
	err := writeFrame(&buf, f.kind, payload)
	return buf.Bytes(), err
}

// FuzzProcFrameDecode holds the pipe's decoders — the frame header and the
// config, symbolic-update and trace codecs inside it — to the one decode
// property every codec surface shares (codectest.FixedPoint). A child is
// another process: whatever it writes is outside input.
func FuzzProcFrameDecode(f *testing.F) {
	imp, err := policy.ParsePolicy("policy IMP { if prefix = 10.1.0.0/16 { reject } default accept }")
	if err != nil {
		f.Fatal(err)
	}
	med := concolic.Const(5, 32)
	med.Sym = expr.Var("update[10]", 32)
	trace := &concolic.Trace{
		Branches:   []concolic.Branch{{Site: "parse/origin", Taken: true, Cond: expr.Eq(expr.Var("update[0]", 8), expr.Const(2, 8))}},
		Assignment: map[string]uint64{"update[0]": 2},
		Vars:       map[string]concolic.VarRef{"update[0]": {Region: "update", Index: 0}},
		Regions:    map[string][]byte{"update": {2, 0}, "choice/pref": {1}},
	}
	samples := []*pipeFrame{
		{kind: codec.KindProcBuild, impl: "bird", cfg: &node.Config{
			Name: "R7", AS: 65007, RouterID: 7,
			Networks:  []bgp.Prefix{{Addr: 10 << 24, Len: 16}},
			Neighbors: []node.NeighborConfig{{Name: "R1", AS: 65001, Import: "IMP"}},
			Policies:  map[string]*policy.Policy{"IMP": imp},
			HoldTime:  90 * time.Second,
		}},
		{kind: codec.KindProcHook, from: "R1", raw: []byte{0, 0, 0, 0}, hasMachine: true, trace: trace, sym: &bgp.SymUpdate{
			MED: med, HasMED: true,
			NLRI: []bgp.SymPrefix{{Len: concolic.Const(16, 8), Addr: concolic.Const(0x0A010000, 32)}},
		}},
		{kind: codec.KindProcDone, trace: trace, raw: []byte("checkpoint blob")},
		{kind: codec.KindProcDone},
		{kind: codec.KindProcDeliver, raw: []byte("opaque")},
	}
	for _, s := range samples {
		frame, err := encodePipeFrame(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		for i := 0; i < codec.FrameHeaderLen; i++ {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 0x41
			f.Add(flipped)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FixedPoint(t, data, 1<<28, decodePipeFrame, encodePipeFrame)
	})
}
