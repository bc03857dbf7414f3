package procdriver

import (
	"bufio"
	"io"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/node"
)

// pipeMeter counts the bytes the proxy writes down its child's stdin.
type pipeMeter struct {
	w io.Writer
	n int
}

func (m *pipeMeter) Write(b []byte) (int, error) {
	m.n += len(b)
	return m.w.Write(b)
}

// TestProxyResetCostsWhatMoved pins the dirty-set rule on the parent side of
// the process boundary, by what goes down the pipe: nothing for a proxy that
// forwarded nothing since it was reset onto the same pair, the state blob
// after an entry point was forwarded or a hook or machine was installed (the
// child's reset is what clears them) — and Start is forwarded only to a child
// that has not started yet.
func TestProxyResetCostsWhatMoved(t *testing.T) {
	if err := SpawnCheck(); err != nil {
		t.Skipf("subprocess spawning unavailable: %v", err)
	}
	t.Cleanup(func() { KillAll() })
	be, err := node.BackendFor(prefix + "bird")
	if err != nil {
		t.Fatal(err)
	}
	built, err := be.Build(&node.Config{
		Name: "R1", AS: 65001, RouterID: 1,
		Networks:  []bgp.Prefix{{Addr: 10 << 24, Len: 16}},
		Neighbors: []node.NeighborConfig{{Name: "R2", AS: 65002}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// restored returns a proxy restored from r's checkpoint, the pair it was
	// restored from, and the meter on its pipe.
	restored := func(r node.Router) (*proxy, node.Image, *State, *pipeMeter) {
		cp := r.TakeCheckpoint()
		im, err := be.ImageOf(cp)
		if err != nil {
			t.Fatal(err)
		}
		st, err := be.DecodeState(cp)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := be.Restore(im, st)
		if err != nil {
			t.Fatal(err)
		}
		p := clone.(*proxy)
		meter := &pipeMeter{w: p.child.in.c.(io.Writer)}
		p.child.in.w = bufio.NewWriter(meter)
		return p, im, st.(*State), meter
	}
	p, im, st, meter := restored(built)
	reset := func() int {
		t.Helper()
		before := meter.n
		if err := p.ResetTo(im, st); err != nil {
			t.Fatal(err)
		}
		return meter.n - before
	}

	if n := reset(); n != 0 {
		t.Errorf("resetting an unmoved proxy wrote %d bytes to its child", n)
	}
	p.SetUpdateHook(func(node.HookContext, string, *bgp.Update) error { return nil })
	if n := reset(); n < len(st.data) || p.hook != nil {
		t.Errorf("a hook installed on an unmoved proxy must be cleared by a full reset (wrote %d of %d bytes, hook left %v)", n, len(st.data), p.hook != nil)
	}
	p.ExploreNextUpdate(concolic.NewMachine(concolic.NewInput("update", nil), concolic.MachineOptions{}), "R2")
	if n := reset(); n < len(st.data) || p.machine != nil {
		t.Errorf("a machine armed on an unmoved proxy must be cleared by a full reset (wrote %d of %d bytes, machine left %v)", n, len(st.data), p.machine != nil)
	}
	if n := reset(); n != 0 {
		t.Errorf("second reset of an unmoved proxy wrote %d bytes", n)
	}

	// A reset the child refuses leaves the proxy marked moved: the next one
	// onto the last good pair is not skipped.
	if err := p.ResetTo(im, &State{impl: st.impl, data: []byte("garbage"), innerSt: st.innerSt}); err == nil {
		t.Fatal("the child accepted a garbage state blob")
	}
	if n := reset(); n < len(st.data) {
		t.Errorf("the reset after a failed one wrote %d bytes, less than the %d-byte state", n, len(st.data))
	}

	// The snapshot was cut before the start, so Start really starts: a move.
	env := &fakeEnv{}
	p.Start(env)
	if len(env.sends) == 0 {
		t.Fatal("Start on an unstarted child sent no OPEN; test is vacuous")
	}
	if n := reset(); n < len(st.data) {
		t.Errorf("resetting a started proxy onto its unstarted snapshot wrote %d bytes, less than the %d-byte state", n, len(st.data))
	}

	// From a started snapshot, Start reaches nobody and moves nothing.
	p.Start(env)
	p, im, st, meter = restored(p)
	p.Start(env)
	if meter.n != 0 {
		t.Errorf("Start on an already started child wrote %d bytes", meter.n)
	}
	if n := reset(); n != 0 {
		t.Errorf("a no-op Start counted as a move: reset wrote %d bytes", n)
	}
}
