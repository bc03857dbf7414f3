package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/dice-project/dice/internal/node"
)

// HashSize is the byte length of a content hash — also what an unchanged
// node costs per epoch in delta accounting: one hash reference in place of
// the full encoding.
const HashSize = sha256.Size

// Hash is the content address of a node checkpoint: the SHA-256 of its
// canonical encoding (the exact bytes EncodeNode produces). Because the
// codec is deterministic, equal router state has equal hash in any process
// on any platform, which is what makes hashes meaningful as identities
// rather than as per-process fingerprints.
type Hash [HashSize]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is the zero value (no content).
func (h Hash) IsZero() bool { return h == Hash{} }

// HashBytes content-addresses an encoding.
func HashBytes(data []byte) Hash { return sha256.Sum256(data) }

// HashNode content-addresses a node checkpoint: the SHA-256 of its canonical
// encoding.
func HashNode(cp node.Checkpoint) (Hash, error) {
	enc, err := EncodeNode(cp)
	if err != nil {
		return Hash{}, err
	}
	return HashBytes(enc), nil
}

// casBlob is one stored checkpoint: the canonical encoding that defines its
// identity plus everything expensive derived from it exactly once — the
// decoded checkpoint value, its backend, and the restore-ready image and
// state. Re-interning an identical checkpoint returns this blob, so a node
// that did not change between ring epochs shares one decoded form across all
// of them.
type casBlob struct {
	hash  Hash
	data  []byte
	cp    node.Checkpoint
	be    node.Backend
	image node.Image
	state node.State
	refs  int
	// alias is the latest checkpoint of equal content interned under another
	// pointer than cp. One is enough: a router hands out only its latest
	// checkpoint, so an older alias is never asked for again.
	alias node.Checkpoint
}

// CAS is a content-addressed store of node checkpoints with reference
// counting: interning a checkpoint whose canonical encoding is already held
// costs a hash lookup and returns the existing blob (structural sharing —
// no second decode, no second copy of the bytes); releasing drops a
// reference and frees the blob when the last holder is gone. The ring uses
// one CAS across its epochs so retention cost scales with how much state
// actually changed, not with capacity × snapshot size.
//
// Checkpoints are immutable and a router hands the same one out until it
// next moves (node.Router.TakeCheckpoint), so the store also resolves a
// checkpoint by identity: one it already holds costs a pointer lookup — no
// encode, no hash.
//
// A CAS is safe for concurrent use.
type CAS struct {
	mu    sync.Mutex
	blobs map[Hash]*casBlob
	// ptrs maps every retained blob's cp and alias to the blob; the entries
	// go when the blob does.
	ptrs map[node.Checkpoint]*casBlob
}

// NewCAS returns an empty content-addressed store.
func NewCAS() *CAS {
	return &CAS{blobs: make(map[Hash]*casBlob), ptrs: make(map[node.Checkpoint]*casBlob)}
}

// intern stores the checkpoint under its content hash and takes a reference.
// A checkpoint the store already holds by pointer resolves without being
// encoded (reused is true); otherwise it is encoded and hashed, and on a hash
// hit the existing blob is returned, the argument's decoded forms are never
// computed and its pointer is learnt as the blob's alias; on a miss the
// checkpoint is decoded into its restore-ready image and state once.
func (c *CAS) intern(cp node.Checkpoint) (b *casBlob, reused bool, err error) {
	c.mu.Lock()
	if b := c.ptrs[cp]; b != nil {
		b.refs++
		c.mu.Unlock()
		return b, true, nil
	}
	c.mu.Unlock()

	enc, err := EncodeNode(cp)
	if err != nil {
		return nil, false, err
	}
	h := HashBytes(enc)

	c.mu.Lock()
	if b, ok := c.blobs[h]; ok {
		c.hitLocked(b, cp)
		c.mu.Unlock()
		return b, false, nil
	}
	c.mu.Unlock()

	// Miss: decode outside the lock (image/state decoding is the expensive
	// part), then re-check — a concurrent intern of the same content wins and
	// this decode is discarded.
	be, err := node.BackendFor(cp.Implementation())
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: cas intern: %w", err)
	}
	im, err := be.ImageOf(cp)
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: cas intern: %w", err)
	}
	st, err := be.DecodeState(cp)
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: cas intern: %w", err)
	}
	nb := &casBlob{hash: h, data: enc, cp: cp, be: be, image: im, state: st, refs: 1}

	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blobs[h]; ok {
		c.hitLocked(b, cp)
		return b, false, nil
	}
	c.blobs[h] = nb
	c.ptrs[cp] = nb
	return nb, false, nil
}

// hitLocked takes a reference to a blob found by hash and learns the pointer
// it was found under as the blob's alias, in place of the one before.
func (c *CAS) hitLocked(b *casBlob, cp node.Checkpoint) {
	b.refs++
	if cp == b.cp {
		return // a concurrent intern of this very checkpoint stored it first
	}
	if b.alias != nil {
		delete(c.ptrs, b.alias)
	}
	b.alias = cp
	c.ptrs[cp] = b
}

// release drops one reference to the hash, freeing the blob when no
// references remain. Releasing an absent hash is a no-op (defensive: the
// caller's bookkeeping is the source of truth).
func (c *CAS) release(h Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blobs[h]
	if !ok {
		return
	}
	b.refs--
	if b.refs <= 0 {
		delete(c.blobs, h)
		delete(c.ptrs, b.cp)
		if b.alias != nil {
			delete(c.ptrs, b.alias)
		}
	}
}

// Len returns the number of unique blobs currently retained.
func (c *CAS) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blobs)
}

// Bytes returns the total canonical-encoding bytes retained — each unique
// blob counted once however many epochs reference it.
func (c *CAS) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, b := range c.blobs {
		total += len(b.data)
	}
	return total
}

// SharedBytesSaved returns the canonical-encoding bytes structural sharing
// avoids retaining: for each blob, (refs−1) × its encoded size — what a
// naive per-epoch copy would additionally hold. Zero when nothing is shared.
func (c *CAS) SharedBytesSaved() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, b := range c.blobs {
		if b.refs > 1 {
			total += (b.refs - 1) * len(b.data)
		}
	}
	return total
}

// RefTotal returns the sum of all blob reference counts — the number of
// epoch-slots resolved by the store, shared or not.
func (c *CAS) RefTotal() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, b := range c.blobs {
		total += b.refs
	}
	return total
}

// Contains reports whether the hash is currently retained.
func (c *CAS) Contains(h Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.blobs[h]
	return ok
}

// Refs returns the reference count of the hash (0 when absent) — exposed for
// retention accounting and tests.
func (c *CAS) Refs(h Hash) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blobs[h]
	if !ok {
		return 0
	}
	return b.refs
}
