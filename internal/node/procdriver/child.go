package procdriver

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// childEnvVar switches a re-exec of the current binary into child mode.
// "serve" hosts a router over stdin/stdout; "probe" exits immediately (the
// spawn-capability check for sandboxed environments).
const childEnvVar = "DICE_PROCDRIVER_CHILD"

// MaybeRunChild must be called at the top of TestMain (or main) in every
// binary that drives "proc:" backends: when the process was spawned as a
// procdriver child it serves the frame protocol and exits, never returning.
// In the parent process it returns immediately. A binary that spawns proc
// routers without this call re-executes its own full entry point in every
// child, which at best hangs the first RPC until timeout.
func MaybeRunChild() {
	switch os.Getenv(childEnvVar) {
	case "":
		return
	case "probe":
		os.Exit(0)
	default:
		runChild(os.Stdin, os.Stdout)
		os.Exit(0)
	}
}

// SpawnCheck re-execs the current binary in probe mode and reports whether
// subprocess spawning works here at all. Tests call it to skip cleanly in
// sandboxes that forbid exec.
func SpawnCheck() error {
	cmd := childCommand("probe")
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("procdriver: cannot re-exec %s: %w", os.Args[0], err)
	}
	return nil
}

// resetForms caches a decoded checkpoint blob by content hash, so pooled
// resets to the same baseline decode once and reset many times — the same
// shape as the parent-side snapshot store.
type resetForms struct {
	im node.Image
	st node.State
}

// server hosts one inner router in a child process.
type server struct {
	r *bufio.Reader
	w *bufio.Writer

	inner   node.Router
	machine *concolic.Machine
	shipped int

	now        time.Duration
	neighbors  []netem.NodeID
	resetCache map[[32]byte]resetForms
}

func runChild(in io.Reader, out io.Writer) {
	s := &server{
		r:          bufio.NewReader(in),
		w:          bufio.NewWriter(out),
		resetCache: make(map[[32]byte]resetForms),
	}
	for {
		typ, payload, err := readFrame(s.r)
		if err != nil {
			return // parent is gone; nothing left to serve
		}
		if err := s.handle(typ, payload); err != nil {
			s.sendErr(err)
		}
		if s.w.Flush() != nil {
			return
		}
	}
}

// handle dispatches one request. A returned error is a request failure
// (answered with codec.KindProcErr, the child stays up); protocol-level
// failures to write frames surface as broken pipes on the next flush.
func (s *server) handle(typ byte, payload []byte) error {
	r := codec.NewReader(payload)
	switch typ {
	case codec.KindProcBuild:
		impl := r.String()
		cfg := decodeConfig(r)
		if err := r.Close(); err != nil {
			return err
		}
		inner, err := node.BuildRouter(impl, cfg)
		if err != nil {
			return err
		}
		s.install(inner)
		return s.sendDone(nil)

	case codec.KindProcRestore:
		blob := r.Blob()
		if err := r.Close(); err != nil {
			return err
		}
		forms, err := s.decodeForms(blob)
		if err != nil {
			return err
		}
		be, err := node.BackendFor(s.implOf(blob))
		if err != nil {
			return err
		}
		inner, err := be.Restore(forms.im, forms.st)
		if err != nil {
			return err
		}
		s.install(inner)
		return s.sendDone(nil)

	case codec.KindProcReset:
		blob := r.Blob()
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: reset before build/restore")
		}
		forms, err := s.decodeForms(blob)
		if err != nil {
			return err
		}
		if err := s.inner.ResetTo(forms.im, forms.st); err != nil {
			return err
		}
		// The inner ResetTo dropped the hook and any armed machine.
		s.machine, s.shipped = nil, 0
		return s.sendDone(nil)

	case codec.KindProcStart:
		s.now = time.Duration(r.Uvarint())
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: start before build/restore")
		}
		s.inner.Start(s.env())
		return s.sendDone(nil)

	case codec.KindProcDeliver:
		s.now = time.Duration(r.Uvarint())
		from := r.String()
		msg := r.Blob()
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: deliver before build/restore")
		}
		s.inner.HandleMessage(s.env(), netem.NodeID(from), msg)
		return s.sendDone(nil)

	case codec.KindProcTimer:
		s.now = time.Duration(r.Uvarint())
		name := r.String()
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: timer before build/restore")
		}
		s.inner.HandleTimer(s.env(), name)
		return s.sendDone(nil)

	case codec.KindProcArm:
		armed := r.Bool()
		fromPeer := r.String()
		maxBranches := int(r.Uvarint())
		var in *concolic.Input
		if armed {
			in = &concolic.Input{Regions: codec.BlobMap(r)}
		}
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: arm before build/restore")
		}
		if !armed {
			s.machine, s.shipped = nil, 0
			s.inner.ExploreNextUpdate(nil, fromPeer)
			return s.sendDone(nil)
		}
		s.machine = concolic.NewMachine(in, concolic.MachineOptions{MaxBranches: maxBranches})
		s.shipped = 0
		s.inner.ExploreNextUpdate(s.machine, fromPeer)
		return s.sendDone(nil)

	case codec.KindProcHookSet:
		install := r.Bool()
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: hook-set before build/restore")
		}
		if install {
			s.inner.SetUpdateHook(s.forwardHook)
		} else {
			s.inner.SetUpdateHook(nil)
		}
		return s.sendDone(nil)

	case codec.KindProcCheckpoint:
		if err := r.Close(); err != nil {
			return err
		}
		if s.inner == nil {
			return errors.New("procdriver: checkpoint before build/restore")
		}
		blob, err := checkpoint.EncodeNode(s.inner.TakeCheckpoint())
		if err != nil {
			return err
		}
		return s.sendDone(blob)

	default:
		return fmt.Errorf("procdriver: child got unknown frame type %#02x", typ)
	}
}

// install adopts a freshly built or restored inner router and derives the
// static environment view (neighbor set) from its configuration.
func (s *server) install(inner node.Router) {
	s.inner = inner
	s.machine, s.shipped = nil, 0
	cfg := inner.Config()
	s.neighbors = s.neighbors[:0]
	for _, n := range cfg.Neighbors {
		s.neighbors = append(s.neighbors, netem.NodeID(n.Name))
	}
	sort.Slice(s.neighbors, func(i, j int) bool { return s.neighbors[i] < s.neighbors[j] })
}

// decodeForms decodes a canonical node blob into restore-ready image and
// state, cached by content hash so pooled resets pay decode once.
func (s *server) decodeForms(blob []byte) (resetForms, error) {
	key := sha256.Sum256(blob)
	if forms, ok := s.resetCache[key]; ok {
		return forms, nil
	}
	cp, err := checkpoint.DecodeNode("", blob)
	if err != nil {
		return resetForms{}, err
	}
	be, err := node.BackendFor(cp.Implementation())
	if err != nil {
		return resetForms{}, err
	}
	im, err := be.ImageOf(cp)
	if err != nil {
		return resetForms{}, err
	}
	st, err := be.DecodeState(cp)
	if err != nil {
		return resetForms{}, err
	}
	forms := resetForms{im: im, st: st}
	s.resetCache[key] = forms
	return forms, nil
}

// implOf extracts the implementation tag from a canonical node blob (the
// blob was just validated by decodeForms, so errors cannot reach here).
func (s *server) implOf(blob []byte) string {
	r := codec.NewReader(blob)
	r.Header(codec.KindNode)
	return r.String()
}

// sendDone answers the current request, attaching the branch-trace increment
// when a machine is armed and an optional result blob.
func (s *server) sendDone(blob []byte) error {
	w := codec.NewWriter()
	var t *concolic.Trace
	if s.machine != nil {
		t = s.machine.ExportTrace(s.shipped)
		s.shipped = len(s.machine.Path())
	}
	encodeTrace(w, t)
	w.Blob(blob)
	return writeFrame(s.w, codec.KindProcDone, w.Bytes())
}

func (s *server) sendErr(err error) {
	w := codec.NewWriter()
	w.String(err.Error())
	_ = writeFrame(s.w, codec.KindProcErr, w.Bytes())
}

// forwardHook is the UpdateHook installed into the inner router: it ships
// the parsed update (concrete body plus symbolic view plus the branch trace
// so far) to the parent, which runs the real hook — fault closures cannot
// cross a process boundary — and applies the parent's mutations and crash
// verdict as if the hook had run here.
func (s *server) forwardHook(r node.HookContext, from string, u *bgp.Update) error {
	w := codec.NewWriter()
	w.String(from)
	w.Blob(u.EncodeBody())
	encodeSymUpdate(w, u.Sym)
	w.Bool(r.ActiveMachine() != nil)
	var t *concolic.Trace
	if s.machine != nil {
		t = s.machine.ExportTrace(s.shipped)
		s.shipped = len(s.machine.Path())
	}
	encodeTrace(w, t)
	if err := writeFrame(s.w, codec.KindProcHook, w.Bytes()); err != nil {
		os.Exit(1) // parent is gone mid-request; no way to recover
	}
	if err := s.w.Flush(); err != nil {
		os.Exit(1)
	}
	typ, payload, err := readFrame(s.r)
	if err != nil || typ != codec.KindProcHookReply {
		os.Exit(1)
	}
	rr := codec.NewReader(payload)
	body := rr.Blob()
	crashed := rr.Bool()
	msg := rr.String()
	if err := rr.Close(); err != nil {
		return fmt.Errorf("procdriver: malformed hook reply: %w", err)
	}
	mutated, err := bgp.DecodeUpdate(body)
	if err != nil {
		return fmt.Errorf("procdriver: hook-mutated update does not parse: %w", err)
	}
	// Hooks mutate concrete fields only; the symbolic view stays the one this
	// process parsed, exactly as it would in-process.
	u.Withdrawn, u.Attrs, u.NLRI = mutated.Withdrawn, mutated.Attrs, mutated.NLRI
	if crashed {
		return errors.New(msg)
	}
	return nil
}

// env returns the emulator view the inner router runs under: virtual time
// and identity shipped by the parent, sends and timer operations forwarded
// back as effect frames in execution order.
func (s *server) env() netem.Env {
	return &childEnv{s: s}
}

type childEnv struct {
	s *server
}

func (e *childEnv) Now() time.Duration { return e.s.now }
func (e *childEnv) Self() netem.NodeID { return e.s.inner.ID() }
func (e *childEnv) Neighbors() []netem.NodeID {
	return append([]netem.NodeID(nil), e.s.neighbors...)
}

func (e *childEnv) Send(to netem.NodeID, payload []byte) {
	w := codec.NewWriter()
	w.String(string(to))
	w.Blob(payload)
	e.s.effect(codec.KindProcEffectSend, w.Bytes())
}

func (e *childEnv) SetTimer(name string, d time.Duration) {
	w := codec.NewWriter()
	w.String(name)
	w.Uvarint(uint64(d))
	e.s.effect(codec.KindProcEffectSetTimer, w.Bytes())
}

func (e *childEnv) CancelTimer(name string) {
	w := codec.NewWriter()
	w.String(name)
	e.s.effect(codec.KindProcEffectCancelTimer, w.Bytes())
}

// Rand must never be called: the backends are deterministic and draw no
// randomness, and a subprocess random source would break replay. Panicking
// turns any future violation into a handler crash the campaign reports.
func (e *childEnv) Rand() *rand.Rand {
	panic("procdriver: backend drew from env.Rand in a subprocess")
}

func (e *childEnv) Logf(format string, args ...interface{}) {
	w := codec.NewWriter()
	w.String(fmt.Sprintf(format, args...))
	e.s.effect(codec.KindProcEffectLog, w.Bytes())
}

func (s *server) effect(typ byte, payload []byte) {
	if err := writeFrame(s.w, typ, payload); err != nil {
		os.Exit(1)
	}
}
