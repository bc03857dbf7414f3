package control

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/checkpoint/codec/codectest"
)

// maxControlPayload is the largest bound any control kind declares.
const maxControlPayload = 64 << 20

// FuzzShardMessageDecode feeds arbitrary bytes to the frame decoder under
// the one decode property every codec surface shares (codectest.FixedPoint):
// error, or a message whose re-encoding is a canonical fixed point; never a
// panic, never an allocation past the frame's declared bound. The seed
// corpus covers every valid message plus classic corruptions (bit flips in
// each header byte, truncations).
func FuzzShardMessageDecode(f *testing.F) {
	for _, msg := range sampleMessages() {
		frame := encodeFrame(f, msg)
		f.Add(frame)
		for i := 0; i < codec.FrameHeaderLen; i++ {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 0x41
			f.Add(flipped)
		}
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{codec.Magic0, codec.Magic1, WireVersion, codec.KindHello, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FixedPoint(t, data, maxControlPayload,
			func(b []byte) (any, error) { return DecodeFrame(bytes.NewReader(b)) },
			func(msg any) ([]byte, error) {
				var buf bytes.Buffer
				_, err := EncodeFrame(&buf, msg)
				return buf.Bytes(), err
			})
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for
// FuzzShardMessageDecode when run with DICE_WRITE_CORPUS=1 (and is a no-op
// skip otherwise): one current-format frame per message kind plus the short
// inputs. Rerun after a wire revision and commit the result. seed-dw-v3, a
// frame written by the last gob release, is kept by hand — it must go on
// failing to decode.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("DICE_WRITE_CORPUS") != "1" {
		t.Skip("corpus generator; run with DICE_WRITE_CORPUS=1 to regenerate")
	}
	seeds := map[string][]byte{
		"seed-empty": {},
		"seed-1byte": {codec.Magic0},
		"seed-magic": {codec.Magic0, codec.Magic1},
	}
	for i, msg := range sampleMessages() {
		seeds["seed-"+strconv.Itoa(i)] = encodeFrame(t, msg)
	}
	old := encodeFrame(t, &Heartbeat{AgentID: "agent-1"})
	old[2] = WireVersion - 1
	seeds["seed-oldversion"] = old
	dir := filepath.Join("testdata", "fuzz", "FuzzShardMessageDecode")
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
