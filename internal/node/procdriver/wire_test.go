package procdriver

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/node"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, codec.KindProcDeliver, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, codec.KindProcDone, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != codec.KindProcDeliver || string(payload) != "payload" {
		t.Fatalf("readFrame = %#02x %q %v", typ, payload, err)
	}
	typ, payload, err = readFrame(&buf)
	if err != nil || typ != codec.KindProcDone || len(payload) != 0 {
		t.Fatalf("empty-payload frame = %#02x %q %v", typ, payload, err)
	}
}

func TestReadFrameRejectsCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, codec.KindProcDone, []byte("full payload"))
	frame := buf.Bytes()
	// A length past the kind's bound is refused at the header.
	huge := append([]byte(nil), frame...)
	copy(huge[codec.HeaderLen:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Errorf("oversized length accepted")
	}
	// A truncated body is an error, not a short read.
	if _, _, err := readFrame(bytes.NewReader(frame[:codec.FrameHeaderLen+3])); err == nil {
		t.Errorf("truncated frame accepted")
	}
	// A control-plane frame does not belong on the pipe.
	buf.Reset()
	if _, err := codec.WriteFrame(&buf, codec.KindHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(&buf); err == nil {
		t.Errorf("control frame accepted on the procdriver pipe")
	}
}

func TestExprCodecRoundTrip(t *testing.T) {
	exprs := []*expr.Expr{
		nil,
		expr.Const(42, 16),
		expr.Var("update[3]", 8),
		expr.Not(expr.Eq(expr.Var("x", 8), expr.Const(7, 8))),
		expr.Ite(expr.Eq(expr.Var("c", 8), expr.Const(1, 8)), expr.ZExt(expr.Var("y", 8), 32), expr.Const(0, 32)),
	}
	for _, e := range exprs {
		w := codec.NewWriter()
		encodeExpr(w, e)
		r := codec.NewReader(w.Bytes())
		got := decodeExpr(r, 0)
		if err := r.Close(); err != nil {
			t.Fatalf("decode %v: %v", e, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("round-trip changed expr:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestExprDecodeRejectsBadKind(t *testing.T) {
	w := codec.NewWriter()
	w.Byte(byte(expr.KindIte) + 1)
	r := codec.NewReader(w.Bytes())
	decodeExpr(r, 0)
	if r.Err() == nil {
		t.Fatal("out-of-range expression kind accepted")
	}
}

func TestExprDecodeBoundsDepth(t *testing.T) {
	// Built from raw nodes: the constructors fold double negation, which
	// would keep the tree shallow.
	deep := expr.Var("v", 8)
	for i := 0; i < maxExprDepth+10; i++ {
		deep = &expr.Expr{Kind: expr.KindNot, Args: []*expr.Expr{deep}}
	}
	w := codec.NewWriter()
	encodeExpr(w, deep)
	r := codec.NewReader(w.Bytes())
	decodeExpr(r, 0)
	if r.Err() == nil {
		t.Fatal("expression nested past the depth bound accepted")
	}
}

func TestSymUpdateCodecRoundTrip(t *testing.T) {
	med := concolic.Const(5, 32)
	med.Sym = expr.Var("update[10]", 32)
	updates := []*bgp.SymUpdate{
		nil,
		{},
		{
			Origin:       concolic.Const(1, 8),
			HasOrigin:    true,
			MED:          med,
			HasMED:       true,
			ASPathLen:    concolic.Const(3, 16),
			NLRI:         []bgp.SymPrefix{{Len: concolic.Const(16, 8), Addr: concolic.Const(0x0A010000, 32)}},
			Withdrawn:    []bgp.SymPrefix{{Len: concolic.Const(24, 8), Addr: concolic.Const(0x0A020000, 32)}},
			Communities:  []concolic.Value{concolic.Const(0xFFFF0001, 32)},
			HasLocalPref: false,
		},
	}
	for _, s := range updates {
		w := codec.NewWriter()
		encodeSymUpdate(w, s)
		r := codec.NewReader(w.Bytes())
		got := decodeSymUpdate(r)
		if err := r.Close(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("round-trip changed SymUpdate:\n got %+v\nwant %+v", got, s)
		}
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	traces := []*concolic.Trace{
		nil,
		{
			Branches: []concolic.Branch{
				{Site: "parse/origin", Taken: true, Cond: expr.Eq(expr.Var("update[0]", 8), expr.Const(2, 8))},
				{Site: "bug/med-zero", Taken: false, Cond: expr.Not(expr.Eq(expr.Var("b", 8), expr.Const(0, 8)))},
			},
			Assignment: map[string]uint64{"update[0]": 2, "update[1]": 0},
			Vars: map[string]concolic.VarRef{
				"update[0]": {Region: "update", Index: 0},
				"update[1]": {Region: "update", Index: 1},
			},
			Regions:   map[string][]byte{"update": {2, 0}, "choice/pref": {1}},
			Truncated: true,
		},
	}
	for _, tr := range traces {
		w := codec.NewWriter()
		encodeTrace(w, tr)
		r := codec.NewReader(w.Bytes())
		got := decodeTrace(r)
		if err := r.Close(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if tr == nil {
			if got != nil {
				t.Errorf("nil trace decoded to %+v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("round-trip changed trace:\n got %+v\nwant %+v", got, tr)
		}
		// Map iteration is sorted on encode: identical traces encode to
		// identical bytes no matter the map's internal order.
		w2 := codec.NewWriter()
		encodeTrace(w2, got)
		if !bytes.Equal(w.Bytes(), w2.Bytes()) {
			t.Errorf("trace encoding not deterministic")
		}
	}
}

func TestConfigCodecRoundTrip(t *testing.T) {
	imp, err := policy.ParsePolicy("policy IMP { if prefix = 10.1.0.0/16 { reject } default accept }")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := policy.ParsePolicy("policy EXP { default accept }")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &node.Config{
		Name:     "R7",
		AS:       65007,
		RouterID: 7,
		Networks: []bgp.Prefix{{Addr: 10 << 24, Len: 16}, {Addr: 192<<24 | 168<<16, Len: 24}},
		Neighbors: []node.NeighborConfig{
			{Name: "R1", AS: 65001, Import: "IMP", Export: "EXP"},
			{Name: "R2", AS: 65002},
		},
		Policies:          map[string]*policy.Policy{"IMP": imp, "EXP": exp},
		HoldTime:          90 * time.Second,
		KeepaliveInterval: 30 * time.Second,
		ConnectRetry:      5 * time.Second,
	}

	w := codec.NewWriter()
	encodeConfig(w, cfg)
	r := codec.NewReader(w.Bytes())
	got := decodeConfig(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if got.Name != cfg.Name || got.AS != cfg.AS || got.RouterID != cfg.RouterID {
		t.Errorf("identity fields changed: %+v", got)
	}
	if !reflect.DeepEqual(got.Networks, cfg.Networks) {
		t.Errorf("networks changed: %v", got.Networks)
	}
	if !reflect.DeepEqual(got.Neighbors, cfg.Neighbors) {
		t.Errorf("neighbors changed: %v", got.Neighbors)
	}
	if got.HoldTime != cfg.HoldTime || got.KeepaliveInterval != cfg.KeepaliveInterval || got.ConnectRetry != cfg.ConnectRetry {
		t.Errorf("timers changed: %+v", got)
	}
	// Policies cross as text; String∘ParsePolicy is the round-trip contract.
	if len(got.Policies) != len(cfg.Policies) {
		t.Fatalf("policy count = %d, want %d", len(got.Policies), len(cfg.Policies))
	}
	for name, p := range cfg.Policies {
		if got.Policies[name] == nil || got.Policies[name].String() != p.String() {
			t.Errorf("policy %s changed:\n got %v\nwant %v", name, got.Policies[name], p)
		}
	}
}

func TestConfigCodecRejectsBadPolicy(t *testing.T) {
	w := codec.NewWriter()
	w.String("R1")     // name
	w.Uvarint(65001)   // AS
	w.Uvarint(1)       // router ID
	w.Uvarint(0)       // networks
	w.Uvarint(0)       // neighbors
	w.Uvarint(1)       // one policy...
	w.String("BROKEN") // ...named BROKEN...
	w.String("not a policy at all")
	w.Uvarint(0)
	w.Uvarint(0)
	w.Uvarint(0)
	r := codec.NewReader(w.Bytes())
	decodeConfig(r)
	if r.Err() == nil {
		t.Fatal("unparseable policy text accepted")
	}
}
