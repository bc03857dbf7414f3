package codec

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func frameOf(t *testing.T, kind byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, kind, payload)
	if err != nil {
		t.Fatalf("WriteFrame(%s): %v", KindName(kind), err)
	}
	if n != buf.Len() || n != FrameHeaderLen+len(payload) {
		t.Fatalf("WriteFrame reported %d bytes, wrote %d, want %d", n, buf.Len(), FrameHeaderLen+len(payload))
	}
	return buf.Bytes()
}

// TestFrameRoundTripEveryKind: every row of the kind table frames and reads
// back on its own family's stream, announces its family's version, and is
// refused on every other family's stream.
func TestFrameRoundTripEveryKind(t *testing.T) {
	rows := 0
	for k, info := range kinds {
		if info.name == "" {
			continue
		}
		rows++
		kind := byte(k)
		if info.max == 0 || info.family < Artifact || info.family > Proc {
			t.Errorf("kind %#02x (%s): incomplete table row %+v", kind, info.name, info)
		}
		frame := frameOf(t, kind, []byte("payload"))
		if frame[2] != familyVersion[info.family] {
			t.Errorf("%s frame announces version %d, want %d", info.name, frame[2], familyVersion[info.family])
		}
		for fam := Artifact; fam <= Proc; fam++ {
			got, payload, err := ReadFrame(bytes.NewReader(frame), fam)
			if fam != info.family {
				if err == nil {
					t.Errorf("%s frame accepted on family %d's stream", info.name, fam)
				}
				continue
			}
			if err != nil || got != kind || string(payload) != "payload" {
				t.Errorf("%s round trip = %#02x %q %v", info.name, got, payload, err)
			}
		}
	}
	if rows != 3+11+17 {
		t.Errorf("kind table has %d rows, want 3 artifacts + 11 control + 17 procdriver", rows)
	}
}

// TestFrameRejectsMalformed is the one malformed-header table for every
// stream: each header field is checked before the payload is allocated.
func TestFrameRejectsMalformed(t *testing.T) {
	frame := frameOf(t, KindHeartbeat, []byte("agent-1"))
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), frame...)
		mutate(b)
		return b
	}
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"empty", "header", nil},
		{"truncated header", "header", frame[:FrameHeaderLen-1]},
		{"bad magic0", "magic", corrupt(func(b []byte) { b[0] = 'D' })},
		{"bad magic1", "magic", corrupt(func(b []byte) { b[1] = 'W' })},
		{"old family version", "version", corrupt(func(b []byte) { b[2] = VersionControl - 1 })},
		{"future family version", "version", corrupt(func(b []byte) { b[2] = VersionControl + 1 })},
		{"zero kind", "unknown", corrupt(func(b []byte) { b[3] = 0 })},
		{"unknown kind", "unknown", corrupt(func(b []byte) { b[3] = 0xFF })},
		{"foreign family", "belong", corrupt(func(b []byte) { b[3] = KindProcDone })},
		{"oversized length", "bound", corrupt(func(b []byte) { copy(b[HeaderLen:], []byte{0, 0, 0, 0x10}) })},
		{"huge length", "bound", corrupt(func(b []byte) { copy(b[HeaderLen:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) })},
		{"truncated payload", "truncated", frame[:len(frame)-1]},
	}
	for _, tc := range cases {
		_, _, err := ReadFrame(bytes.NewReader(tc.data), Control)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}

	// Trailing bytes are the next frame's business on a stream and an error
	// inside a payload: the Reader's Close refuses them.
	_, payload, err := ReadFrame(bytes.NewReader(append(frame, 0xEE)), Control)
	if err != nil {
		t.Fatalf("frame followed by more stream: %v", err)
	}
	r := NewReader(append(payload, 0xEE))
	if _ = r.String(); r.Close() == nil {
		t.Error("Close accepted a trailing byte after the record")
	}

	// The writer refuses what the reader would: unknown kinds and payloads
	// over the kind's bound never reach the stream.
	var sink bytes.Buffer
	if _, err := WriteFrame(&sink, 0xFF, nil); err == nil || sink.Len() != 0 {
		t.Errorf("WriteFrame framed an unknown kind (err %v, wrote %d)", err, sink.Len())
	}
	if _, err := WriteFrame(&sink, KindHeartbeat, make([]byte, maxSmall+1)); err == nil || sink.Len() != 0 {
		t.Errorf("WriteFrame framed an over-bound payload (err %v, wrote %d)", err, sink.Len())
	}
}

// TestFrameStreamEndsWithEOF: frames are self-delimiting, and a stream that
// ends between frames says so with io.EOF — how a procdriver child notices
// its parent is gone.
func TestFrameStreamEndsWithEOF(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(frameOf(t, KindProcDeliver, []byte("one")))
	stream.Write(frameOf(t, KindProcDone, nil))
	for _, want := range []byte{KindProcDeliver, KindProcDone} {
		if kind, _, err := ReadFrame(&stream, Proc); err != nil || kind != want {
			t.Fatalf("ReadFrame = %#02x, %v; want %#02x", kind, err, want)
		}
	}
	if _, _, err := ReadFrame(&stream, Proc); !errors.Is(err, io.EOF) {
		t.Fatalf("exhausted stream: err = %v, want io.EOF", err)
	}
}

func TestBlobMapSortedAndRoundTrip(t *testing.T) {
	m := map[string][]byte{"update": {1, 2, 3}, "choice/a": {1}, "choice/b": {0}, "zz": nil, "aa": {9}}
	w := NewWriter()
	PutBlobMap(w, m)
	first := append([]byte(nil), w.Bytes()...)
	for i := 0; i < 32; i++ {
		w2 := NewWriter()
		PutBlobMap(w2, m)
		if !bytes.Equal(w2.Bytes(), first) {
			t.Fatalf("encoding %d differs: map order leaked into the bytes", i)
		}
	}
	r := NewReader(first)
	got := BlobMap(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(m))
	}
	for k, v := range m {
		if !bytes.Equal(got[k], v) {
			t.Errorf("entry %q = %v, want %v", k, got[k], v)
		}
	}
	if empty := BlobMap(NewReader([]byte{0})); empty == nil {
		t.Error("empty map decoded to nil")
	}
}
