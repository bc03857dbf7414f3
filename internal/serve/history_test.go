package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/checkpoint/codec/codectest"
	"github.com/dice-project/dice/internal/live"
)

func sampleHistory() *History {
	h := &History{}
	h.Soaks = 2
	h.AddEpoch(1, live.EpochSummary{
		Seq: 1, UnixNano: 1700000000000000000,
		Pause: 3 * time.Millisecond, Process: 9 * time.Millisecond,
		Traffic: 2 * time.Second, Explore: 40 * time.Millisecond,
		OverBudget: false, Stride: 1,
		Bytes: 4096, DeltaBytes: 512, NodesChanged: 3,
		Campaigns: 5, CampaignsDeduped: 1, Inputs: 40, InputsSaved: 8,
		Paths: 12, PathsSaved: 2, Findings: 1,
	})
	h.AddEpoch(1, live.EpochSummary{
		Seq: 2, UnixNano: 1700000002000000000,
		Pause: 30 * time.Millisecond, Process: 7 * time.Millisecond,
		Traffic: 2 * time.Second, Explore: 35 * time.Millisecond,
		OverBudget: true, Stride: 2,
		Bytes: 4096, DeltaBytes: 128, NodesChanged: 1,
		Campaigns: 5, CampaignsDeduped: 3, Inputs: 16, InputsSaved: 24,
		Paths: 6, PathsSaved: 8, Findings: 0,
	})
	h.AddEpoch(2, live.EpochSummary{
		Seq: 1, UnixNano: 1700000100000000000,
		Pause: 2 * time.Millisecond, Process: 5 * time.Millisecond,
		Traffic: 2 * time.Second, Explore: 20 * time.Millisecond,
		Stride: 1, Bytes: 4096, Campaigns: 5, Inputs: 40, Paths: 10,
		Findings: 2,
	})
	h.MergeScenario("session-reset", 1, 0.25)
	h.MergeScenario("delay-burst", 2, 0.5)
	h.MergeScenario("session-reset", 2, 0.3)
	return h
}

// TestHistoryRoundTrip is the codec golden round-trip: encode → decode →
// re-encode must be byte-identical, and the decoded structure must equal
// the original.
func TestHistoryRoundTrip(t *testing.T) {
	h := sampleHistory()
	first := h.Encode()
	decoded, err := DecodeHistory(first)
	if err != nil {
		t.Fatalf("DecodeHistory: %v", err)
	}
	if !reflect.DeepEqual(h, decoded) {
		t.Fatalf("decoded history differs:\n got %+v\nwant %+v", decoded, h)
	}
	second := decoded.Encode()
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(first), len(second))
	}
}

// TestHistoryEncodeDeterministic re-encodes the same state many times and
// demands identical bytes each time.
func TestHistoryEncodeDeterministic(t *testing.T) {
	h := sampleHistory()
	want := h.Encode()
	for i := 0; i < 32; i++ {
		if got := h.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("encode %d diverged", i)
		}
	}
}

// TestDecodeHistoryRejectsLegacy covers the sniff: gob streams and arbitrary
// bytes are refused with ErrNotHistory rather than misparsed.
func TestDecodeHistoryRejectsLegacy(t *testing.T) {
	for name, data := range map[string][]byte{
		// gob.Encode(map[string]int{"soaks": 3}), as the pre-codec releases
		// would have written it.
		"gob":     []byte("\r\x7f\x04\x01\x02\xff\x80\x00\x01\f\x01\x04\x00\x00\v\xff\x80\x00\x01\x05soaks\x06"),
		"empty":   nil,
		"text":    []byte("soak history v0\n"),
		"short":   {0xD1},
		"nomagic": {0x00, 0x01, 0x02, 0x03},
	} {
		if _, err := DecodeHistory(data); !errors.Is(err, ErrNotHistory) {
			t.Errorf("%s: err = %v, want ErrNotHistory", name, err)
		}
	}
}

// FuzzHistoryDecode holds the soak-history decoder to the one decode property
// every codec surface shares (codectest.FixedPoint): a history file is read
// back after a kill, possibly torn, so whatever is on disk is outside input.
func FuzzHistoryDecode(f *testing.F) {
	good := sampleHistory().Encode()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0xFF))
	f.Add((&History{}).Encode())
	f.Add([]byte{})
	for i := 0; i < codec.HeaderLen; i++ {
		flipped := append([]byte(nil), good...)
		flipped[i] ^= 0x41
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FixedPoint(t, data, 0, DecodeHistory,
			func(h *History) ([]byte, error) { return h.Encode(), nil })
	})
}

// TestDecodeHistoryRejectsCorrupt covers truncation, trailing garbage and
// unsorted scenario rows.
func TestDecodeHistoryRejectsCorrupt(t *testing.T) {
	good := sampleHistory().Encode()

	if _, err := DecodeHistory(good[:len(good)-3]); err == nil {
		t.Error("truncated artifact decoded without error")
	}
	if _, err := DecodeHistory(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Error("trailing byte decoded without error")
	}

	unsorted := &History{Soaks: 1, Scenarios: []ScenarioRow{
		{Name: "zz", Findings: 1, Weight: 0.5},
		{Name: "aa", Findings: 1, Weight: 0.5},
	}}
	if _, err := DecodeHistory(unsorted.Encode()); err == nil {
		t.Error("unsorted scenario rows decoded without error")
	}
}

func TestMergeScenarioAccumulates(t *testing.T) {
	h := &History{}
	h.MergeScenario("b", 2, 0.4)
	h.MergeScenario("a", 1, 0.1)
	h.MergeScenario("b", 3, 0.7)
	want := []ScenarioRow{{Name: "a", Findings: 1, Weight: 0.1}, {Name: "b", Findings: 5, Weight: 0.7}}
	if !reflect.DeepEqual(h.Scenarios, want) {
		t.Fatalf("scenarios = %+v, want %+v", h.Scenarios, want)
	}
}

func TestTrendAggregatesPerSoak(t *testing.T) {
	h := sampleHistory()
	trend := h.Trend()
	if len(trend) != 2 {
		t.Fatalf("trend has %d points, want 2", len(trend))
	}
	if trend[0].Soak != 1 || trend[1].Soak != 2 {
		t.Fatalf("trend soak order = %d,%d", trend[0].Soak, trend[1].Soak)
	}
	if trend[0].Epochs != 2 || trend[0].Campaigns != 10 || trend[0].Findings != 1 {
		t.Fatalf("soak 1 aggregate = %+v", trend[0])
	}
	if trend[1].Epochs != 1 || trend[1].Findings != 2 {
		t.Fatalf("soak 2 aggregate = %+v", trend[1])
	}
}
