package core

import (
	"testing"

	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
	"smthill/internal/trace"
)

// TestProbeMatchesSerialClones pins Probe to a serial CloneInto loop:
// 11 candidates on a K=4 batch (so the last wave is partial) must each
// commit exactly what a serial run from the same checkpoint commits,
// reads must arrive in candidate order, and the checkpoint itself must
// not move.
func TestProbeMatchesSerialClones(t *testing.T) {
	src := machineFor([]trace.Profile{ilpProfile(1), mlpProfile(2)}, nil)
	src.CycleN(4000)
	var cands []resource.Shares
	EnumerateShares(2, src.Resources().Sizes()[resource.IntRename], 16, func(s resource.Shares) {
		if len(cands) < 11 {
			cands = append(cands, s)
		}
	})
	const cycles = 3000

	want := make([][]uint64, len(cands))
	var ref *pipeline.Machine
	for i, s := range cands {
		ref = src.CloneInto(ref)
		ref.Resources().SetShares(s)
		ref.CycleN(cycles)
		want[i] = commitCounts(ref)
	}

	now, stats := src.Now(), src.Stats()
	p := Probe{K: 4}
	var order []int
	p.Run(src, len(cands), cycles,
		func(i int, m *pipeline.Machine) { m.Resources().SetShares(cands[i]) },
		func(i int, m *pipeline.Machine) {
			order = append(order, i)
			got := commitCounts(m)
			for th := range got {
				if got[th] != want[i][th] {
					t.Errorf("candidate %d thread %d: probe committed %d, serial clone %d", i, th, got[th], want[i][th])
				}
			}
		})
	for i, got := range order {
		if got != i {
			t.Fatalf("read order %v, want 0..%d", order, len(cands)-1)
		}
	}
	if len(order) != len(cands) {
		t.Fatalf("read %d candidates, want %d", len(order), len(cands))
	}
	if src.Now() != now || src.Stats() != stats {
		t.Fatalf("probe moved the checkpoint: now %d -> %d, stats %+v -> %+v", now, src.Now(), stats, src.Stats())
	}
}

// TestIdealSearchersTraceWinnerRecorder checks that the winner copied
// out of the batch keeps its own per-trial recorder: every traced
// OFF-LINE and RAND-HILL learning epoch reports exactly one epoch of
// stall-attribution cycles.
func TestIdealSearchersTraceWinnerRecorder(t *testing.T) {
	profs := []trace.Profile{mlpProfile(1), ilpProfile(2)}
	var offSink, randSink telemetry.MemorySink

	o := NewOffLine(machineFor(profs, nil), metrics.WeightedIPC, []float64{1, 1})
	o.EpochSize = testEpoch
	o.Stride = 32
	o.Trace = &offSink
	o.Run(3)

	r := NewRandHill(machineFor(profs, nil), metrics.WeightedIPC, []float64{1, 1})
	r.EpochSize = testEpoch
	r.MaxIters = 12
	r.Trace = &randSink
	r.Run(3)

	for name, sink := range map[string]*telemetry.MemorySink{"OFF-LINE": &offSink, "RAND-HILL": &randSink} {
		evs := sink.Events()
		if len(evs) != 3 {
			t.Fatalf("%s: %d events, want 3", name, len(evs))
		}
		for _, ev := range evs {
			if ev.Kind != telemetry.KindLearning {
				t.Fatalf("%s epoch %d: kind %q, want learning", name, ev.Epoch, ev.Kind)
			}
			if got := ev.Stalls["cycles"]; got != testEpoch {
				t.Errorf("%s epoch %d: recorder saw %d cycles, want %d", name, ev.Epoch, got, testEpoch)
			}
		}
	}
}
