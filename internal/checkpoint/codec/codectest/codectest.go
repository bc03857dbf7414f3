// Package codectest holds the one decode property every codec surface is
// fuzzed against — checkpoint artifacts, soak history, the control wire and
// the procdriver pipe — so "what a decoder owes hostile bytes" is stated
// once.
package codectest

import (
	"bytes"
	"runtime"
	"testing"
)

// FixedPoint asserts the decode contract on arbitrary data: decode fails, or
// the value it returns re-encodes to a canonical form that decodes again and
// re-encodes to the same bytes. (Mutated input may carry non-minimal varints
// or unsorted maps that parse anyway, so data itself need not be canonical —
// its re-encoding must be.) A decoder panic fails the test on its own.
//
// bound is the payload bound the surface declares for data (zero for
// artifacts, whose extent is the input's): decode may allocate that plus a
// constant factor of the bytes it was actually handed, and no more — a count
// or length field read from data must never size an allocation by itself.
func FixedPoint[T any](t testing.TB, data []byte, bound int, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := decode(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(bound)+256*uint64(len(data))+1<<20; got > limit {
		t.Fatalf("decoding %d bytes allocated %d, over the limit of %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	canon, err := encode(v)
	if err != nil {
		t.Fatalf("decoded %T does not re-encode: %v", v, err)
	}
	v2, err := decode(canon)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", v, err)
	}
	canon2, err := encode(v2)
	if err != nil {
		t.Fatalf("second re-encode of %T failed: %v", v, err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Fatalf("canonical form of %T is not a fixed point: %d vs %d bytes", v, len(canon), len(canon2))
	}
}
