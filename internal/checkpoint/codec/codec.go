// Package codec implements the deterministic binary format of every byte
// that leaves a process: checkpoint artifacts, the soak-history file, the
// control wire and the procdriver pipe. Identical state always encodes to
// identical bytes, so content hashes, binary deltas and cross-process
// comparisons are sound by construction.
//
// The format is deliberately primitive:
//
//   - a 4-byte header (magic 0xD1 0xCE, the version of the kind's family, a
//     kind byte) opens everything; anything else is rejected, there is no
//     second decoder. Streams follow the header with a u32 length bounded
//     per kind (WriteFrame/ReadFrame in frame.go, which also holds the one
//     kind table);
//   - integers are varints (unsigned or zig-zag), strings and byte blobs are
//     length-prefixed;
//   - repeated records (routes, sessions, events) travel in flat slabs with a
//     fixed 32-bit length prefix, so a decoder can bound-check the whole slab
//     before parsing and a corrupt count can never drive allocation past the
//     buffer;
//   - map-shaped data (per-peer route sets, input regions) is always encoded
//     in sorted key order.
//
// Decoding is strictly non-panicking: the Reader carries a sticky error,
// every count is validated against the remaining bytes before it sizes an
// allocation, and truncated or trailing input fails the final EOF check.
//
// The //dice:codec directive below opts this package into dice-vet's
// codecpin field-coverage rule: any external struct these encoders touch
// only partially must carry a //dice:fieldpin, so "added a field, forgot
// the codec" fails vet instead of shipping lossy checkpoints.
//
//dice:codec
package codec

import (
	"encoding/binary"
	"fmt"
)

// Header layout: Magic0 Magic1 Version Kind.
const (
	// Magic0 and Magic1 open every codec artifact and stream frame.
	Magic0 = 0xD1
	Magic1 = 0xCE
	// Version is the artifact family's format revision; bump on any
	// incompatible change to a snapshot, node or history encoding. The other
	// families' versions sit with the kind table in frame.go.
	Version = 1
	// HeaderLen is the fixed header size.
	HeaderLen = 4
)

// Artifact kinds.
const (
	// KindSnapshot frames a whole consistent cut.
	KindSnapshot = 1
	// KindNode frames a single node checkpoint (the content-addressed unit).
	KindNode = 2
	// KindHistory frames a dice-serve soak-history file (per-epoch summary
	// rows plus per-scenario detection analytics).
	KindHistory = 3
)

// IsEncoded reports whether data opens with this package's header magic,
// for callers that tell "not ours at all" apart from "ours but corrupt".
func IsEncoded(data []byte) bool {
	return len(data) >= HeaderLen && data[0] == Magic0 && data[1] == Magic1
}

// Writer builds one codec artifact in an append-only buffer. The zero value
// is usable; NewWriter pre-sizes the buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer pre-sized for a small artifact.
func NewWriter() *Writer {
	return &Writer{buf: make([]byte, 0, 512)}
}

// Bytes returns the encoded artifact. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Header writes the 4-byte format header for the given artifact kind.
func (w *Writer) Header(kind byte) {
	w.buf = append(w.buf, Magic0, Magic1, Version, kind)
}

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob writes a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// BeginSlab reserves a fixed 32-bit length prefix and returns a mark for
// EndSlab. Between the two calls the caller writes the slab body.
func (w *Writer) BeginSlab() int {
	w.buf = append(w.buf, 0, 0, 0, 0)
	return len(w.buf)
}

// EndSlab backfills the length prefix reserved by BeginSlab with the number
// of body bytes written since.
func (w *Writer) EndSlab(mark int) {
	binary.LittleEndian.PutUint32(w.buf[mark-4:mark], uint32(len(w.buf)-mark))
}

// UvarintLen returns the encoded size of an unsigned varint, for size
// accounting that must agree byte-for-byte with the encoder without
// materializing an encoding.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen returns the encoded size of a signed (zig-zag) varint.
func VarintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return UvarintLen(uv)
}

// StringLen returns the encoded size of a length-prefixed string.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// BlobLen returns the encoded size of a length-prefixed byte slice.
func BlobLen(b []byte) int { return UvarintLen(uint64(len(b))) + len(b) }

// Reader parses one codec artifact. Errors are sticky: after the first
// malformed read every further accessor returns the zero value, so decoders
// can parse a whole structure and check Err once. Nothing in the Reader
// panics on malformed input.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data. The reader does not copy data;
// accessors that return slices copy out of it.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rem returns the number of unread bytes.
func (r *Reader) Rem() int { return len(r.data) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format+" at offset %d", append(args, r.off)...)
	}
}

// Fail records a decode error at the current offset, for decoders layered
// on the Reader outside this package (backend payloads, wire frames). Like
// every other error path it is sticky: only the first failure is kept.
func (r *Reader) Fail(format string, args ...any) { r.fail(format, args...) }

// Header consumes and validates the 4-byte format header, requiring the
// given artifact kind.
func (r *Reader) Header(wantKind byte) {
	if r.err != nil {
		return
	}
	if r.Rem() < HeaderLen {
		r.fail("truncated header")
		return
	}
	h := r.data[r.off : r.off+HeaderLen]
	r.off += HeaderLen
	switch {
	case h[0] != Magic0 || h[1] != Magic1:
		r.fail("bad magic %#02x %#02x", h[0], h[1])
	case h[2] != Version:
		r.fail("unsupported format version %d (have %d)", h[2], Version)
	case h[3] != wantKind:
		r.fail("artifact kind %d, want %d", h[3], wantKind)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Rem() < 1 {
		r.fail("truncated byte")
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is malformed.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err == nil && b > 1 {
		r.fail("invalid bool %d", b)
	}
	return b == 1
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("malformed uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("malformed varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count and validates it against the remaining bytes
// (every element costs at least one byte), so a corrupt count can never size
// an allocation past the input.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Rem()) {
		r.fail("count %d exceeds %d remaining bytes", v, r.Rem())
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	if r.err != nil {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// Blob reads a length-prefixed byte slice. The result is a copy, detached
// from the reader's input buffer; zero length decodes to nil.
func (r *Reader) Blob() []byte {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.data[r.off:r.off+n])
	r.off += n
	return b
}

// BeginSlab reads a fixed 32-bit slab length prefix, validates it against
// the remaining input, and returns the offset at which the slab must end.
func (r *Reader) BeginSlab() int {
	if r.err != nil {
		return r.off
	}
	if r.Rem() < 4 {
		r.fail("truncated slab length")
		return r.off
	}
	n := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	if n > uint32(r.Rem()) {
		r.fail("slab length %d exceeds %d remaining bytes", n, r.Rem())
		return r.off
	}
	return r.off + int(n)
}

// EndSlab validates that the slab body was consumed exactly to the offset
// BeginSlab returned.
func (r *Reader) EndSlab(end int) {
	if r.err == nil && r.off != end {
		r.fail("slab consumed to offset %d, want %d", r.off, end)
	}
}

// Close finishes the parse: it returns the sticky error, or an error if
// unread bytes remain (an artifact never carries trailing garbage).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Rem() != 0 {
		return fmt.Errorf("codec: %d trailing bytes after artifact", r.Rem())
	}
	return nil
}
