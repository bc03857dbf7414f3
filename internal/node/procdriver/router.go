package procdriver

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// proxy is the parent-side node.Router: it forwards the emulator's calls to
// the subprocess and answers every state read from a mirror — a local
// instance of the inner backend kept in sync by resetting it to the child's
// canonical checkpoints. The mirror makes reads cheap and, more importantly,
// honest: the only channel out of the child is the same checkpoint codec the
// snapshot store trusts, so nothing the checker sees can bypass it.
type proxy struct {
	name      string
	innerImpl string
	innerBe   node.Backend

	mu     sync.Mutex
	child  *child
	mirror node.Router
	dirty  bool // mirror is behind the child's state
	// moved: an entry point was forwarded since the child was last reset onto
	// (resetIm, resetSt). ResetTo skips the round trip of a proxy that has not
	// moved, is asked for the same pair and carries no hook or machine.
	moved   bool
	resetIm *Image
	resetSt *State
	machine *concolic.Machine
	hook    node.UpdateHook
	// cut wraps the mirror's checkpoint; it is handed out again for as long as
	// the mirror hands out the same inner one.
	cut *Checkpoint
	err error // first fatal failure; the proxy is dead once set
}

// reply is a parsed codec.KindProcDone.
type reply struct {
	blob []byte
}

// buildProxy constructs the subprocess-backed router: the mirror is built
// in-process from the same configuration (which also validates it before a
// child is paid for), then the child builds the real one.
func buildProxy(innerImpl string, cfg *node.Config) (node.Router, error) {
	be, err := node.BackendFor(innerImpl)
	if err != nil {
		return nil, err
	}
	mirror, err := be.Build(cfg.Clone())
	if err != nil {
		return nil, err
	}
	c, err := spawnChild()
	if err != nil {
		return nil, err
	}
	p := &proxy{name: cfg.Name, innerImpl: innerImpl, innerBe: be, child: c, mirror: mirror}
	w := codec.NewWriter()
	w.String(innerImpl)
	encodeConfig(w, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.call(nil, codec.KindProcBuild, w.Bytes()); err != nil {
		c.kill()
		return nil, fmt.Errorf("procdriver: %s: child build: %w", cfg.Name, err)
	}
	return p, nil
}

// restoreProxy builds the subprocess-backed router from decoded image and
// state: the mirror restores in-process from the shared inner forms, the
// child restores from the canonical bytes.
func restoreProxy(innerImpl string, im *Image, st *State) (node.Router, error) {
	be, err := node.BackendFor(innerImpl)
	if err != nil {
		return nil, err
	}
	mirror, err := be.Restore(im.innerIm, st.innerSt)
	if err != nil {
		return nil, err
	}
	c, err := spawnChild()
	if err != nil {
		return nil, err
	}
	p := &proxy{name: im.name, innerImpl: innerImpl, innerBe: be, child: c, mirror: mirror, resetIm: im, resetSt: st}
	w := codec.NewWriter()
	w.Blob(st.data)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.call(nil, codec.KindProcRestore, w.Bytes()); err != nil {
		c.kill()
		return nil, fmt.Errorf("procdriver: %s: child restore: %w", im.name, err)
	}
	return p, nil
}

// fail records the first fatal error, kills the subprocess, and returns the
// error. Callers must hold p.mu.
func (p *proxy) fail(err error) error {
	if p.err == nil {
		p.err = err
		p.child.kill()
	}
	return p.err
}

// call performs one request/reply exchange, applying effect frames to env
// and running hook callbacks as they arrive. A returned error is fatal
// (subprocess dead or protocol broken) except when it came from a
// codec.KindProcErr, which is a request-level failure of a still-healthy
// child. Callers hold p.mu.
func (p *proxy) call(env netem.Env, typ byte, payload []byte) (*reply, error) {
	if p.err != nil {
		return nil, p.err
	}
	if err := p.child.in.writeFrame(typ, payload); err != nil {
		return nil, p.fail(fmt.Errorf("procdriver: %s: write to subprocess: %w%s", p.name, err, p.stderrTail()))
	}
	timer := time.NewTimer(RPCTimeout)
	defer timer.Stop()
	for {
		select {
		case f, ok := <-p.child.frames:
			if !ok {
				return nil, p.fail(fmt.Errorf("procdriver: %s: subprocess died mid-request%s", p.name, p.stderrTail()))
			}
			switch f.typ {
			case codec.KindProcEffectSend, codec.KindProcEffectSetTimer, codec.KindProcEffectCancelTimer, codec.KindProcEffectLog:
				if err := applyEffect(env, f.typ, f.payload); err != nil {
					return nil, p.fail(fmt.Errorf("procdriver: %s: %w", p.name, err))
				}
			case codec.KindProcHook:
				if err := p.handleHook(f.payload); err != nil {
					return nil, p.fail(fmt.Errorf("procdriver: %s: hook exchange: %w", p.name, err))
				}
			case codec.KindProcDone:
				r := codec.NewReader(f.payload)
				t := decodeTrace(r)
				blob := r.Blob()
				if err := r.Close(); err != nil {
					return nil, p.fail(fmt.Errorf("procdriver: %s: malformed reply: %w", p.name, err))
				}
				p.machine.ImportTrace(t)
				return &reply{blob: blob}, nil
			case codec.KindProcErr:
				r := codec.NewReader(f.payload)
				msg := r.String()
				if err := r.Close(); err != nil {
					return nil, p.fail(fmt.Errorf("procdriver: %s: malformed error reply: %w", p.name, err))
				}
				return nil, errors.New(msg)
			default:
				return nil, p.fail(fmt.Errorf("procdriver: %s: unexpected frame %#02x from subprocess", p.name, f.typ))
			}
		case <-timer.C:
			return nil, p.fail(fmt.Errorf("procdriver: %s: subprocess stalled: no reply within %s%s", p.name, RPCTimeout, p.stderrTail()))
		}
	}
}

// callFatal is call for requests that cannot legitimately fail: any error,
// including a request-level one, marks the proxy dead so the campaign layer
// reports a unit error instead of running on divergent state.
func (p *proxy) callFatal(env netem.Env, typ byte, payload []byte) {
	if _, err := p.call(env, typ, payload); err != nil && p.err == nil {
		p.err = fmt.Errorf("procdriver: %s: %w", p.name, err)
		p.child.kill()
	}
}

// forward ships one state-mutating entry point to the child: the mirror falls
// behind it and the proxy counts as moved.
func (p *proxy) forward(env netem.Env, typ byte, payload []byte) {
	p.dirty, p.moved = true, true
	p.callFatal(env, typ, payload)
}

func (p *proxy) stderrTail() string {
	if t := p.child.stderr.tail(); t != "" {
		return "; child stderr: " + t
	}
	return ""
}

// applyEffect replays one child-side environment interaction against the
// real emulator, in arrival order.
func applyEffect(env netem.Env, typ byte, payload []byte) error {
	if env == nil {
		return fmt.Errorf("subprocess emitted effect %#02x outside message handling", typ)
	}
	r := codec.NewReader(payload)
	switch typ {
	case codec.KindProcEffectSend:
		to := r.String()
		msg := r.Blob()
		if err := r.Close(); err != nil {
			return err
		}
		env.Send(netem.NodeID(to), msg)
	case codec.KindProcEffectSetTimer:
		name := r.String()
		d := r.Uvarint()
		if err := r.Close(); err != nil {
			return err
		}
		env.SetTimer(name, time.Duration(d))
	case codec.KindProcEffectCancelTimer:
		name := r.String()
		if err := r.Close(); err != nil {
			return err
		}
		env.CancelTimer(name)
	case codec.KindProcEffectLog:
		line := r.String()
		if err := r.Close(); err != nil {
			return err
		}
		env.Logf("%s", line)
	}
	return nil
}

// hookCtx is the HookContext the parent-side hook runs under.
type hookCtx struct {
	m *concolic.Machine
}

func (h hookCtx) ActiveMachine() *concolic.Machine { return h.m }

// handleHook services one child hook callback: import the child's branch
// trace so the parent machine is current, rebuild the parsed update, run the
// real (closure-carrying) hook here, and ship back the mutated concrete
// fields plus the crash verdict.
func (p *proxy) handleHook(payload []byte) error {
	r := codec.NewReader(payload)
	from := r.String()
	body := r.Blob()
	sym := decodeSymUpdate(r)
	hasMachine := r.Bool()
	t := decodeTrace(r)
	if err := r.Close(); err != nil {
		return err
	}
	p.machine.ImportTrace(t)
	u, err := bgp.DecodeUpdate(body)
	if err != nil {
		return fmt.Errorf("update from subprocess does not parse: %w", err)
	}
	u.Sym = sym
	var m *concolic.Machine
	if hasMachine {
		m = p.machine
	}
	var crashed bool
	var crashMsg string
	if p.hook != nil {
		if herr := p.hook(hookCtx{m: m}, from, u); herr != nil {
			crashed = true
			crashMsg = herr.Error()
		}
	}
	w := codec.NewWriter()
	w.Blob(u.EncodeBody())
	w.Bool(crashed)
	w.String(crashMsg)
	return p.child.in.writeFrame(codec.KindProcHookReply, w.Bytes())
}

//
// netem.Node
//

func (p *proxy) ID() netem.NodeID { return netem.NodeID(p.name) }

func (p *proxy) Start(env netem.Env) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	// A started mirror in step with the child means the child is started too
	// and its Start would return at once: nothing to forward, nothing moved.
	if s, ok := p.mirror.(interface{ Started() bool }); ok && !p.dirty && s.Started() {
		return
	}
	w := codec.NewWriter()
	w.Uvarint(uint64(env.Now()))
	p.forward(env, codec.KindProcStart, w.Bytes())
}

func (p *proxy) HandleMessage(env netem.Env, from netem.NodeID, payload []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return // a dead node drops traffic; Unhealthy reports why
	}
	w := codec.NewWriter()
	w.Uvarint(uint64(env.Now()))
	w.String(string(from))
	w.Blob(payload)
	p.forward(env, codec.KindProcDeliver, w.Bytes())
}

func (p *proxy) HandleTimer(env netem.Env, name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	w := codec.NewWriter()
	w.Uvarint(uint64(env.Now()))
	w.String(name)
	p.forward(env, codec.KindProcTimer, w.Bytes())
}

//
// node.Router
//

func (p *proxy) Implementation() string { return "proc:" + p.innerImpl }

func (p *proxy) Config() *node.Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mirror.Config()
}

// refreshedLocked returns the mirror, first syncing it to the child's state
// when it is behind: one checkpoint round-trip, decoded through the inner
// backend and applied with the same ResetTo the clone pool trusts.
func (p *proxy) refreshedLocked() node.Router {
	if p.err == nil && p.dirty {
		rep, err := p.call(nil, codec.KindProcCheckpoint, nil)
		if err != nil {
			p.fail(fmt.Errorf("procdriver: %s: checkpoint: %w", p.name, err))
			return p.mirror
		}
		if err := p.adoptLocked(rep.blob); err != nil {
			p.fail(fmt.Errorf("procdriver: %s: adopt checkpoint: %w", p.name, err))
			return p.mirror
		}
		p.dirty = false
	}
	return p.mirror
}

func (p *proxy) adoptLocked(blob []byte) error {
	cp, err := checkpoint.DecodeNode(p.innerImpl, blob)
	if err != nil {
		return err
	}
	im, err := p.innerBe.ImageOf(cp)
	if err != nil {
		return err
	}
	st, err := p.innerBe.DecodeState(cp)
	if err != nil {
		return err
	}
	return p.mirror.ResetTo(im, st)
}

func (p *proxy) LocRIB() *rib.LocRIB {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshedLocked().LocRIB()
}

func (p *proxy) Events() []node.RouteEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshedLocked().Events()
}

func (p *proxy) Stats() node.RouterStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshedLocked().Stats()
}

func (p *proxy) Panicked() (bool, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshedLocked().Panicked()
}

func (p *proxy) CheckInvariants() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshedLocked().CheckInvariants()
}

func (p *proxy) TakeCheckpoint() node.Checkpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	if inner := p.refreshedLocked().TakeCheckpoint(); p.cut == nil || p.cut.Inner != inner {
		p.cut = &Checkpoint{Inner: inner}
	}
	return p.cut
}

func (p *proxy) ResetTo(im node.Image, st node.State) error {
	pim, ok := im.(*Image)
	if !ok {
		return fmt.Errorf("procdriver: %s: image %T is not a procdriver image", p.name, im)
	}
	pst, ok := st.(*State)
	if !ok {
		return fmt.Errorf("procdriver: %s: state %T is not a procdriver state", p.name, st)
	}
	if pim.impl != p.Implementation() || pst.impl != p.Implementation() {
		return fmt.Errorf("procdriver: %s: reset with %s/%s forms, router is %s", p.name, pim.impl, pst.impl, p.Implementation())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.moved || p.hook != nil || p.machine != nil || p.resetIm != pim || p.resetSt != pst {
		p.moved = true // until the child and the mirror both hold the pair
		w := codec.NewWriter()
		w.Blob(pst.data)
		if _, err := p.call(nil, codec.KindProcReset, w.Bytes()); err != nil {
			return err
		}
		// The child's ResetTo cleared its hook and armed machine; match it.
		p.machine, p.hook = nil, nil
	} else {
		// Nothing reached the child since it was reset onto this pair, so it
		// still holds it — if it lives: the skipped round trip is what would
		// have found a child that died while pooled.
		select {
		case <-p.child.waited:
			return p.fail(fmt.Errorf("procdriver: %s: subprocess died while idle%s", p.name, p.stderrTail()))
		default:
		}
	}
	// The mirror skips likewise, unless a read path (CheckInvariants) moved it.
	if err := p.mirror.ResetTo(pim.innerIm, pst.innerSt); err != nil {
		return p.fail(fmt.Errorf("procdriver: %s: mirror reset: %w", p.name, err))
	}
	p.dirty, p.moved, p.resetIm, p.resetSt = false, false, pim, pst
	return nil
}

func (p *proxy) ExploreNextUpdate(m *concolic.Machine, fromPeer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	p.machine = m
	w := codec.NewWriter()
	w.Bool(m != nil)
	w.String(fromPeer)
	w.Uvarint(uint64(m.MaxBranches()))
	if m != nil {
		codec.PutBlobMap(w, m.Input().Regions)
	}
	p.callFatal(nil, codec.KindProcArm, w.Bytes())
}

func (p *proxy) SetUpdateHook(h node.UpdateHook) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	p.hook = h
	w := codec.NewWriter()
	w.Bool(h != nil)
	p.callFatal(nil, codec.KindProcHookSet, w.Bytes())
}

// ActiveMachine reports nil: the proxy is never observed mid-handling from
// outside (hooks receive their machine through the HookContext), matching
// what an in-process router answers between messages.
func (p *proxy) ActiveMachine() *concolic.Machine { return nil }

// Unhealthy implements the health probe the cluster layer polls: it returns
// the first fatal subprocess failure (crash, stall, protocol break), or nil
// while the child is serving.
func (p *proxy) Unhealthy() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Mirror returns the parent-side mirror of r, brought in step with the child,
// or nil when r is not a procdriver router. Test seam: the mirror's own
// builder is the uncached reference for what TakeCheckpoint hands out.
func Mirror(r node.Router) node.Router {
	p, ok := r.(*proxy)
	if !ok {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshedLocked()
}

// Kill terminates r's subprocess out from under the proxy, simulating an
// external crash: the proxy is NOT marked dead — the next interaction
// discovers the EOF exactly as it would for a real crash. It reports whether
// r was a procdriver router with a live child. Test seam.
func Kill(r node.Router) bool {
	p, ok := r.(*proxy)
	if !ok {
		return false
	}
	p.child.kill()
	<-p.child.waited
	return true
}
