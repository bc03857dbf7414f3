// Package a exercises the detrange analyzer: map ranges feeding hashers and
// the deterministic checkpoint codec. BadHash is the
// PR 6 bug shape (fingerprint fed in map iteration order) verbatim.
package a

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"

	"github.com/dice-project/dice/internal/checkpoint/codec"
)

// BadHash folds map entries into a fingerprint in iteration order.
func BadHash(m map[string]int) []byte {
	h := sha256.New()
	for k, v := range m { // want `range over map`
		fmt.Fprintf(h, "%s=%d", k, v)
	}
	return h.Sum(nil)
}

// GoodHash sorts the keys first; the collecting loop touches no sink.
func GoodHash(m map[string]int) []byte {
	h := sha256.New()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d", k, m[k])
	}
	return h.Sum(nil)
}

// BadWrite hits the hasher's Write method directly.
func BadWrite(m map[string]bool) []byte {
	h := sha256.New()
	for k := range m { // want `range over map`
		h.Write([]byte(k))
	}
	return h.Sum(nil)
}

// BadCodec streams map entries into the deterministic checkpoint writer —
// re-introducing an unsorted map range into the codec fails vet.
func BadCodec(w *codec.Writer, m map[uint64]string) {
	for k, v := range m { // want `range over map`
		w.Uvarint(k)
		w.String(v)
	}
}

// GoodCodec iterates the sorted keys.
func GoodCodec(w *codec.Writer, m map[uint64]string) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		w.Uvarint(k)
		w.String(m[k])
	}
}

// Absorb wraps a hasher write; callers inherit the taint as a fact.
func Absorb(h hash.Hash, s string) {
	h.Write([]byte(s))
}

// BadViaHelper reaches the hasher only through Absorb (same package).
func BadViaHelper(h hash.Hash, m map[string]bool) {
	for k := range m { // want `range over map`
		Absorb(h, k)
	}
}

// Allowed demonstrates suppression with a mandatory reason.
func Allowed(m map[string]int) int {
	n := 0
	//dice:allow detrange commutative sum of per-entry hashes, order cannot change the result
	for _, v := range m {
		h := sha256.New()
		fmt.Fprintf(h, "%d", v)
		n += int(h.Sum(nil)[0])
	}
	return n
}
