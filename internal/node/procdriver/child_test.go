package procdriver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// wireClient drives a runChild server over in-process pipes: the full frame
// protocol without spawning a subprocess, so the child-side handler is
// exercised (and counted) inside the test process.
type wireClient struct {
	t *testing.T
	w *io.PipeWriter
	r *io.PipeReader
}

func startChildServer(t *testing.T) *wireClient {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	done := make(chan struct{})
	go func() {
		runChild(reqR, respW)
		respW.Close()
		close(done)
	}()
	t.Cleanup(func() {
		reqW.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Errorf("runChild did not return after its request stream closed")
		}
	})
	return &wireClient{t: t, w: reqW, r: respR}
}

// roundTrip performs one request: it sends the frame and reads until the
// child answers, collecting effect frames and servicing at most one hook
// exchange through onHook. It returns the codec.KindProcDone blob, the effects, and
// the codec.KindProcErr message ("" on success).
func (c *wireClient) roundTrip(typ byte, payload []byte, onHook func(hook []byte) []byte) ([]byte, []frame, string) {
	c.t.Helper()
	if err := writeFrame(c.w, typ, payload); err != nil {
		c.t.Fatalf("write request %#02x: %v", typ, err)
	}
	var effects []frame
	for {
		ftyp, fpayload, err := readFrame(c.r)
		if err != nil {
			c.t.Fatalf("read reply to %#02x: %v", typ, err)
		}
		switch ftyp {
		case codec.KindProcEffectSend, codec.KindProcEffectSetTimer, codec.KindProcEffectCancelTimer, codec.KindProcEffectLog:
			effects = append(effects, frame{typ: ftyp, payload: fpayload})
		case codec.KindProcHook:
			if onHook == nil {
				c.t.Fatalf("unexpected hook exchange during %#02x", typ)
			}
			if err := writeFrame(c.w, codec.KindProcHookReply, onHook(fpayload)); err != nil {
				c.t.Fatalf("write hook reply: %v", err)
			}
		case codec.KindProcDone:
			r := codec.NewReader(fpayload)
			decodeTrace(r) // trace increment; parity is asserted elsewhere
			blob := r.Blob()
			if err := r.Close(); err != nil {
				c.t.Fatalf("malformed done payload: %v", err)
			}
			return blob, effects, ""
		case codec.KindProcErr:
			r := codec.NewReader(fpayload)
			msg := r.String()
			if err := r.Close(); err != nil {
				c.t.Fatalf("malformed error payload: %v", err)
			}
			return nil, effects, msg
		default:
			c.t.Fatalf("unexpected frame %#02x from child", ftyp)
		}
	}
}

func sendEffectDest(t *testing.T, f frame) string {
	t.Helper()
	r := codec.NewReader(f.payload)
	to := r.String()
	r.Blob()
	if err := r.Close(); err != nil {
		t.Fatalf("malformed send effect: %v", err)
	}
	return to
}

// TestChildServerProtocol walks one child server through its whole life:
// request-before-build errors, build, session handshake with effect
// forwarding, arming, a parent-side hook exchange that crashes the handler,
// checkpointing, and a reset that clears the damage.
func TestChildServerProtocol(t *testing.T) {
	c := startChildServer(t)

	// Kinds that are not requests and requests before build are request
	// errors, not protocol failures: the child answers and stays up.
	if _, _, msg := c.roundTrip(codec.KindProcDone, nil, nil); !strings.Contains(msg, "unknown frame") {
		t.Fatalf("unknown frame type answered %q", msg)
	}
	startPayload := codec.NewWriter()
	startPayload.Uvarint(0)
	if _, _, msg := c.roundTrip(codec.KindProcStart, startPayload.Bytes(), nil); !strings.Contains(msg, "before build") {
		t.Fatalf("start before build answered %q", msg)
	}

	// BUILD a bird router R2 with one neighbor R1.
	cfg := &node.Config{
		Name: "R2", AS: 65002, RouterID: 2,
		Networks:  []bgp.Prefix{{Addr: 10<<24 | 2<<16, Len: 16}},
		Neighbors: []node.NeighborConfig{{Name: "R1", AS: 65001}},
		HoldTime:  90 * time.Second, KeepaliveInterval: 30 * time.Second,
	}
	w := codec.NewWriter()
	w.String("bird")
	encodeConfig(w, cfg)
	if _, _, msg := c.roundTrip(codec.KindProcBuild, w.Bytes(), nil); msg != "" {
		t.Fatalf("build failed: %s", msg)
	}

	// START: the router opens its session — the OPEN must cross back as a
	// send effect addressed to the neighbor.
	_, effects, msg := c.roundTrip(codec.KindProcStart, startPayload.Bytes(), nil)
	if msg != "" {
		t.Fatalf("start failed: %s", msg)
	}
	opened := false
	for _, f := range effects {
		if f.typ == codec.KindProcEffectSend && sendEffectDest(t, f) == "R1" {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("start produced no OPEN to R1; effects: %d", len(effects))
	}

	// Handshake to Established: deliver the peer's OPEN, then its KEEPALIVE.
	deliver := func(wire []byte, onHook func([]byte) []byte) ([]byte, []frame, string) {
		w := codec.NewWriter()
		w.Uvarint(uint64(5 * time.Millisecond))
		w.String("R1")
		w.Blob(wire)
		return c.roundTrip(codec.KindProcDeliver, w.Bytes(), onHook)
	}
	open := bgp.Encode(&bgp.Open{Version: bgp.Version, AS: 65001, HoldTime: 90, RouterID: 1})
	if _, effects, msg = deliver(open, nil); msg != "" {
		t.Fatalf("deliver OPEN: %s", msg)
	}
	if len(effects) == 0 {
		t.Fatalf("peer OPEN produced no reply effects")
	}
	if _, _, msg = deliver(bgp.Encode(&bgp.Keepalive{}), nil); msg != "" {
		t.Fatalf("deliver KEEPALIVE: %s", msg)
	}

	// ARM a machine over the update body, install the forwarding hook.
	body := (&bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001}, NextHop: 7},
		NLRI:  []bgp.Prefix{{Addr: 50 << 24, Len: 16}},
	}).EncodeBody()
	w = codec.NewWriter()
	w.Bool(true)
	w.String("R1")
	w.Uvarint(4096)
	w.Uvarint(1)
	w.String("update")
	w.Blob(body)
	if _, _, msg = c.roundTrip(codec.KindProcArm, w.Bytes(), nil); msg != "" {
		t.Fatalf("arm: %s", msg)
	}
	w = codec.NewWriter()
	w.Bool(true)
	if _, _, msg = c.roundTrip(codec.KindProcHookSet, w.Bytes(), nil); msg != "" {
		t.Fatalf("hook set: %s", msg)
	}

	// Deliver the UPDATE: the child must forward the hook — parsed body,
	// symbolic view, armed-machine flag — and honor the crash verdict.
	hookSeen := false
	_, _, msg = deliver(bgp.FrameUpdate(body), func(hook []byte) []byte {
		hookSeen = true
		r := codec.NewReader(hook)
		from := r.String()
		hookBody := r.Blob()
		sym := decodeSymUpdate(r)
		hasMachine := r.Bool()
		decodeTrace(r)
		if err := r.Close(); err != nil {
			t.Fatalf("malformed hook frame: %v", err)
		}
		if from != "R1" || !bytes.Equal(hookBody, body) {
			t.Errorf("hook carries from=%q body %d bytes", from, len(hookBody))
		}
		if sym == nil || !hasMachine {
			t.Errorf("hook shipped sym=%v hasMachine=%v, want symbolic view under an armed machine", sym != nil, hasMachine)
		}
		reply := codec.NewWriter()
		reply.Blob(hookBody)
		reply.Bool(true)
		reply.String("boom")
		return reply.Bytes()
	})
	if msg != "" {
		t.Fatalf("deliver UPDATE: %s", msg)
	}
	if !hookSeen {
		t.Fatal("update delivery under an installed hook never forwarded it")
	}

	// CHECKPOINT: the crash verdict must be visible in the canonical state.
	blob, _, msg := c.roundTrip(codec.KindProcCheckpoint, nil, nil)
	if msg != "" {
		t.Fatalf("checkpoint: %s", msg)
	}
	cp, err := checkpoint.DecodeNode("bird", blob)
	if err != nil {
		t.Fatalf("child checkpoint does not decode: %v", err)
	}
	if cp.NodeName() != "R2" {
		t.Errorf("checkpoint names %q", cp.NodeName())
	}

	// RESET onto the checkpoint just taken: round-trips decodeForms and the
	// content-hash cache, and must leave the child reporting identical bytes.
	w = codec.NewWriter()
	w.Blob(blob)
	for i := 0; i < 2; i++ { // second reset hits the decoded-forms cache
		if _, _, msg = c.roundTrip(codec.KindProcReset, w.Bytes(), nil); msg != "" {
			t.Fatalf("reset %d: %s", i, msg)
		}
	}
	again, _, msg := c.roundTrip(codec.KindProcCheckpoint, nil, nil)
	if msg != "" {
		t.Fatalf("checkpoint after reset: %s", msg)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("reset-to-self changed canonical state (%d vs %d bytes)", len(again), len(blob))
	}

	// Disarm and fire a timer: both must answer cleanly.
	w = codec.NewWriter()
	w.Bool(false)
	w.String("R1")
	w.Uvarint(0)
	if _, _, msg = c.roundTrip(codec.KindProcArm, w.Bytes(), nil); msg != "" {
		t.Fatalf("disarm: %s", msg)
	}
	w = codec.NewWriter()
	w.Uvarint(uint64(30 * time.Second))
	w.String("keepalive/R1")
	if _, _, msg = c.roundTrip(codec.KindProcTimer, w.Bytes(), nil); msg != "" {
		t.Fatalf("timer: %s", msg)
	}
}

// TestChildServerRestore covers the restore path: a canonical blob from a
// built router restores a fresh child server to identical state.
func TestChildServerRestore(t *testing.T) {
	first := startChildServer(t)
	cfg := &node.Config{
		Name: "R1", AS: 65001, RouterID: 1,
		Networks:  []bgp.Prefix{{Addr: 10 << 24, Len: 16}},
		Neighbors: []node.NeighborConfig{{Name: "R2", AS: 65002}},
	}
	w := codec.NewWriter()
	w.String("obgpd")
	encodeConfig(w, cfg)
	if _, _, msg := first.roundTrip(codec.KindProcBuild, w.Bytes(), nil); msg != "" {
		t.Fatalf("build: %s", msg)
	}
	blob, _, msg := first.roundTrip(codec.KindProcCheckpoint, nil, nil)
	if msg != "" {
		t.Fatalf("checkpoint: %s", msg)
	}

	second := startChildServer(t)
	w = codec.NewWriter()
	w.Blob(blob)
	if _, _, msg := second.roundTrip(codec.KindProcRestore, w.Bytes(), nil); msg != "" {
		t.Fatalf("restore: %s", msg)
	}
	restored, _, msg := second.roundTrip(codec.KindProcCheckpoint, nil, nil)
	if msg != "" {
		t.Fatalf("checkpoint after restore: %s", msg)
	}
	if !bytes.Equal(restored, blob) {
		t.Fatalf("restored child state differs from source")
	}

	// A corrupt restore blob is a request error, not a death sentence.
	w = codec.NewWriter()
	w.Blob([]byte("garbage"))
	if _, _, msg := second.roundTrip(codec.KindProcRestore, w.Bytes(), nil); msg == "" {
		t.Fatal("garbage restore blob accepted")
	}
	if restored, _, msg = second.roundTrip(codec.KindProcCheckpoint, nil, nil); msg != "" || !bytes.Equal(restored, blob) {
		t.Fatalf("child unusable after rejected restore: %q", msg)
	}
}

// fakeEnv records the effects applyEffect replays into the emulator.
type fakeEnv struct {
	sends   []string
	timers  []string
	cancels []string
	logs    []string
}

func (e *fakeEnv) Now() time.Duration             { return 0 }
func (e *fakeEnv) Self() netem.NodeID             { return "test" }
func (e *fakeEnv) Neighbors() []netem.NodeID      { return nil }
func (e *fakeEnv) Send(to netem.NodeID, p []byte) { e.sends = append(e.sends, string(to)) }
func (e *fakeEnv) SetTimer(name string, d time.Duration) {
	e.timers = append(e.timers, name)
}
func (e *fakeEnv) CancelTimer(name string) { e.cancels = append(e.cancels, name) }
func (e *fakeEnv) Rand() *rand.Rand        { return nil }
func (e *fakeEnv) Logf(format string, args ...interface{}) {
	e.logs = append(e.logs, format)
}

func TestApplyEffectRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	srv := &server{w: bufio.NewWriter(&buf)}
	env := &childEnv{s: srv}
	env.Send("R9", []byte{1, 2})
	env.SetTimer("keepalive", time.Second)
	env.CancelTimer("hold")
	env.Logf("hello %d", 7)
	if err := srv.w.Flush(); err != nil {
		t.Fatal(err)
	}

	sink := &fakeEnv{}
	r := bytes.NewReader(buf.Bytes())
	for {
		typ, payload, err := readFrame(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := applyEffect(sink, typ, payload); err != nil {
			t.Fatalf("applyEffect(%#02x): %v", typ, err)
		}
	}
	if len(sink.sends) != 1 || sink.sends[0] != "R9" {
		t.Errorf("sends = %v", sink.sends)
	}
	if len(sink.timers) != 1 || sink.timers[0] != "keepalive" {
		t.Errorf("timers = %v", sink.timers)
	}
	if len(sink.cancels) != 1 || sink.cancels[0] != "hold" {
		t.Errorf("cancels = %v", sink.cancels)
	}
	if len(sink.logs) != 1 {
		t.Errorf("logs = %v", sink.logs)
	}

	// Effects outside message handling (env == nil) are protocol errors.
	w := codec.NewWriter()
	w.String("R9")
	w.Blob(nil)
	if err := applyEffect(nil, codec.KindProcEffectSend, w.Bytes()); err == nil {
		t.Error("effect with no env accepted")
	}
}

func TestChildEnvRandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("env.Rand in a child did not panic")
		}
	}()
	(&childEnv{}).Rand()
}

func TestBoundedBufKeepsTail(t *testing.T) {
	b := &boundedBuf{}
	if b.tail() != "" {
		t.Errorf("empty buffer tail = %q", b.tail())
	}
	for i := 0; i < 3000; i++ {
		_, _ = b.Write([]byte("stderr line\n"))
	}
	tail := b.tail()
	if len(tail) > 515 { // 512 plus the "..." marker
		t.Errorf("tail is %d bytes", len(tail))
	}
	if !strings.Contains(tail, "stderr line") {
		t.Errorf("tail lost the content: %q", tail)
	}
}
