package procdriver

import (
	"fmt"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/node"
)

// Checkpoint is a subprocess-backed node's checkpoint: the wrapped inner
// backend's checkpoint, tagged so restore spawns a fresh subprocess around
// it. Wrapping (rather than re-encoding) keeps the state bytes identical to
// the in-process backend's — which is what makes proc-vs-in-process
// detection fingerprints comparable at the byte level.
type Checkpoint struct {
	Inner node.Checkpoint
}

// NodeName implements node.Checkpoint.
func (c *Checkpoint) NodeName() string { return c.Inner.NodeName() }

// Implementation implements node.Checkpoint.
func (c *Checkpoint) Implementation() string { return prefix + c.Inner.Implementation() }

// Image is the immutable half of a restored proc node: the inner backend's
// decoded image (shared with the mirror and every clone) plus the canonical
// bytes the child restores from.
type Image struct {
	name    string
	impl    string
	data    []byte
	innerIm node.Image
}

// Name implements node.Image.
func (im *Image) Name() string { return im.name }

// Implementation implements node.Image.
func (im *Image) Implementation() string { return im.impl }

// State is the mutable half: the inner backend's decoded state plus the
// canonical bytes shipped to the child on restore and reset.
type State struct {
	impl    string
	data    []byte
	innerSt node.State
}

// makeBackend builds the "proc:<impl>" registry entry wrapping the named
// inner backend. The decision policy is the inner one's: process isolation
// is a driver choice, not a protocol behavior, so the divergence oracle
// deduplicates proc:bird against bird.
func makeBackend(innerImpl string) node.Backend {
	inner, err := node.BackendFor(innerImpl)
	if err != nil {
		panic(fmt.Sprintf("procdriver: wrapping unregistered backend %q", innerImpl))
	}
	name := prefix + innerImpl

	unwrap := func(cp node.Checkpoint) (*Checkpoint, error) {
		pc, ok := cp.(*Checkpoint)
		if !ok {
			return nil, fmt.Errorf("procdriver: checkpoint %T is not a procdriver checkpoint", cp)
		}
		if got := pc.Inner.Implementation(); got != innerImpl {
			return nil, fmt.Errorf("procdriver: checkpoint wraps %q, backend is %s", got, name)
		}
		return pc, nil
	}

	return node.Backend{
		Name:     name,
		Decision: inner.Decision,
		Build: func(cfg *node.Config) (node.Router, error) {
			return buildProxy(innerImpl, cfg)
		},
		ImageOf: func(cp node.Checkpoint) (node.Image, error) {
			pc, err := unwrap(cp)
			if err != nil {
				return nil, err
			}
			data, err := checkpoint.EncodeNode(pc.Inner)
			if err != nil {
				return nil, err
			}
			im, err := inner.ImageOf(pc.Inner)
			if err != nil {
				return nil, err
			}
			return &Image{name: pc.Inner.NodeName(), impl: name, data: data, innerIm: im}, nil
		},
		DecodeState: func(cp node.Checkpoint) (node.State, error) {
			pc, err := unwrap(cp)
			if err != nil {
				return nil, err
			}
			data, err := checkpoint.EncodeNode(pc.Inner)
			if err != nil {
				return nil, err
			}
			st, err := inner.DecodeState(pc.Inner)
			if err != nil {
				return nil, err
			}
			return &State{impl: name, data: data, innerSt: st}, nil
		},
		Restore: func(im node.Image, st node.State) (node.Router, error) {
			pim, ok := im.(*Image)
			if !ok {
				return nil, fmt.Errorf("procdriver: image %T is not a procdriver image", im)
			}
			pst, ok := st.(*State)
			if !ok {
				return nil, fmt.Errorf("procdriver: state %T is not a procdriver state", st)
			}
			if pim.impl != name || pst.impl != name {
				return nil, fmt.Errorf("procdriver: restore with %s/%s forms into %s", pim.impl, pst.impl, name)
			}
			return restoreProxy(innerImpl, pim, pst)
		},
		EncodeCanonical: func(cp node.Checkpoint) ([]byte, error) {
			pc, err := unwrap(cp)
			if err != nil {
				return nil, err
			}
			blob, err := checkpoint.EncodeNode(pc.Inner)
			if err != nil {
				return nil, err
			}
			w := codec.NewWriter()
			w.Blob(blob)
			return w.Bytes(), nil
		},
		DecodeCanonical: func(payload []byte) (node.Checkpoint, error) {
			r := codec.NewReader(payload)
			blob := r.Blob()
			if err := r.Close(); err != nil {
				return nil, fmt.Errorf("procdriver: decode canonical: %w", err)
			}
			innerCp, err := checkpoint.DecodeNode(innerImpl, blob)
			if err != nil {
				return nil, fmt.Errorf("procdriver: decode wrapped checkpoint: %w", err)
			}
			return &Checkpoint{Inner: innerCp}, nil
		},
	}
}
