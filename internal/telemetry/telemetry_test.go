package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONLSinkRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Event{
		Type: TypeEpoch, Run: "art-mcf/OFF-LINE", Epoch: 0, Kind: KindLearning,
		Thread: None, Shares: []int{128, 128}, IPC: []float64{1.5, 0.5},
		Committed: []uint64{98304, 32768}, Score: 1.25,
		Stalls: map[string]uint64{"cycles": 65536, "fetch.icache": 120},
	})
	s.Emit(Event{Type: TypeMove, Epoch: 3, Kind: KindTried, Thread: 1, Delta: 4})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var got Event
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if got.Thread != None || got.Shares[0] != 128 || got.Stalls["fetch.icache"] != 120 {
		t.Fatalf("round trip mangled the event: %s", got)
	}
	// epoch 0 / thread 0 must stay representable: the always-present int
	// fields may not be dropped by omitempty.
	for _, want := range []string{`"epoch":0`, `"thread":-1`, `"score":1.25`} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line 0 missing %s: %s", want, lines[0])
		}
	}
	// Inapplicable fields are omitted, not zero-filled.
	if strings.Contains(lines[1], "shares") || strings.Contains(lines[1], "stalls") {
		t.Errorf("move event carries epoch-only fields: %s", lines[1])
	}
}

func TestCSVSinkHeaderAndVectors(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	s.Emit(Event{Type: TypeEpoch, Epoch: 2, Thread: None, Shares: []int{96, 160}, IPC: []float64{1, 2}, Score: 0.5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header+row:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "96;160") {
		t.Errorf("shares not ';'-joined: %q", lines[1])
	}
}

func TestMemorySinkAndTee(t *testing.T) {
	var a, b MemorySink
	tee := Tee{&a, &b}
	tee.Emit(Event{Type: TypeJob, Key: "k"})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("tee delivered %d/%d events, want 1/1", a.Len(), b.Len())
	}
	if ev := a.Events()[0]; ev.Key != "k" {
		t.Fatalf("event = %s", ev)
	}
}

func TestOpenSinkPicksFormatByExtension(t *testing.T) {
	dir := t.TempDir()

	jp := filepath.Join(dir, "trace.jsonl")
	sink, closer, err := OpenSink(jp)
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(Event{Type: TypeEpoch, Epoch: 1, Thread: None})
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(bytes.TrimSpace(data), &ev); err != nil {
		t.Fatalf("jsonl file does not parse: %v", err)
	}

	cp := filepath.Join(dir, "trace.csv")
	sink, closer, err = OpenSink(cp)
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(Event{Type: TypeEpoch, Epoch: 1, Thread: None})
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "type,run,epoch") {
		t.Fatalf("csv file missing header: %q", data)
	}
}

func TestSub(t *testing.T) {
	cur := map[string]uint64{"a": 10, "b": 5, "c": 3}
	prev := map[string]uint64{"a": 4, "b": 5}
	got := Sub(cur, prev)
	if len(got) != 2 || got["a"] != 6 || got["c"] != 3 {
		t.Fatalf("Sub = %v, want map[a:6 c:3]", got)
	}
	if Sub(nil, prev) != nil {
		t.Error("Sub(nil, prev) should be nil")
	}
	if Sub(prev, prev) != nil {
		t.Error("Sub of equal maps should drop every zero delta")
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for _, v := range []int{0, 1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Sum != 106 {
		t.Fatalf("Count=%d Sum=%d, want 6/106", h.Count, h.Sum)
	}
	if got := h.Mean(); got < 17.6 || got > 17.7 {
		t.Fatalf("Mean = %g", got)
	}
	// 0 and the clamped -5 land in bucket 0; 1 in bucket 1; 2,3 in bucket
	// 2; 100 in bucket 7 ([64,128)).
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 7: 1}
	var total uint64
	for i, c := range h.Buckets {
		total += c
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if total != h.Count {
		t.Errorf("bucket counts sum to %d, Count is %d", total, h.Count)
	}
	if BucketLo(7) != 64 || BucketLo(0) != 0 {
		t.Errorf("BucketLo: got %d,%d", BucketLo(7), BucketLo(0))
	}
}

func TestRecorderTotals(t *testing.T) {
	r := NewRecorder(2)
	r.Cycles = 100
	r.Stalled = 7
	r.Threads[0].Fetch[FetchICache] = 3
	r.Threads[1].Fetch[FetchICache] = 2
	r.Threads[1].Dispatch[DispatchROBFull] = 4
	r.Threads[0].L2Outstanding = 9
	r.Threads[0].IQOcc.Observe(5)

	tot := r.Totals()
	checks := map[string]uint64{
		"cycles": 100, "machine.stalled": 7, "fetch.icache": 5,
		"dispatch.rob_full": 4, "l2.outstanding": 9, "occ.iq": 5,
	}
	for k, want := range checks {
		if tot[k] != want {
			t.Errorf("Totals[%q] = %d, want %d", k, tot[k], want)
		}
	}
	if _, ok := tot["fetch.policy"]; ok {
		t.Error("zero counters should not appear in Totals")
	}
}
