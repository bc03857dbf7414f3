package checkpoint

import (
	"testing"

	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/checkpoint/codec/codectest"
	"github.com/dice-project/dice/internal/node"
)

// FuzzCheckpointCodecDecode hammers the codec's decode surface with mutated
// bytes: whole snapshots, single-node encodings, flipped headers, truncated
// slabs, and a pre-codec gob artifact that must now be refused. The contract
// under fuzzing is the one every codec surface shares (codectest.FixedPoint)
// — malformed input returns an error, it never panics and never decodes into
// a value that re-encodes differently. The checked-in seed corpus (testdata/fuzz/FuzzCheckpointCodecDecode) starts
// the mutator from valid encodings so it spends its budget inside the slab
// parsers, not on the magic check.
func FuzzCheckpointCodecDecode(f *testing.F) {
	s := sampleSnapshot(f)
	snapEnc, err := Encode(s)
	if err != nil {
		f.Fatal(err)
	}
	nodeEnc, err := EncodeNode(s.Nodes["A"])
	if err != nil {
		f.Fatal(err)
	}
	gobEnc := legacyGobSnapshot(f)
	if _, err := Decode(gobEnc); err == nil {
		f.Fatal("legacy gob artifact decoded; there must be no second format")
	}

	f.Add(snapEnc)
	f.Add(nodeEnc)
	f.Add(gobEnc)
	f.Add([]byte{})
	f.Add([]byte{codec.Magic0})
	f.Add([]byte{codec.Magic0, codec.Magic1})
	f.Add([]byte{codec.Magic0, codec.Magic1, codec.Version, codec.KindSnapshot})
	f.Add([]byte{codec.Magic0, codec.Magic1, codec.Version, codec.KindNode})
	f.Add([]byte{codec.Magic0, codec.Magic1, codec.Version + 1, codec.KindSnapshot})
	f.Add(snapEnc[:len(snapEnc)/2])
	f.Add(nodeEnc[:len(nodeEnc)-1])
	flipped := append([]byte(nil), snapEnc...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FixedPoint(t, data, 0, Decode, func(snap *Snapshot) ([]byte, error) {
			enc, err := Encode(snap)
			if err != nil {
				return nil, err
			}
			// Size accounting must agree with the encoder on anything that
			// decodes, not only on snapshots the system built itself.
			if sizes, err := Measure(snap); err != nil || sizes.TotalBytes != len(enc) {
				t.Fatalf("Measure = %d (%v), len(Encode) = %d", sizes.TotalBytes, err, len(enc))
			}
			return enc, nil
		})
		// Same contract for the single-node surface, tagless and tagged.
		for _, impl := range []string{"", "bird", "frr"} {
			codectest.FixedPoint(t, data, 0,
				func(b []byte) (node.Checkpoint, error) { return DecodeNode(impl, b) }, EncodeNode)
		}
	})
}
