package simjob

import (
	"context"
	"slices"
	"testing"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/multicore"
	"smthill/internal/resource"
	"smthill/internal/workload"
)

// steepEpoch is an epoch size other than core.DefaultEpochSize, so a
// probe horizon left at the default would score a different stretch of
// execution than the epoch the adopted partition governs.
const steepEpoch = 4096

// newSteep is a STEEP-WIPC climber bound to the spec's epoch by hand.
func newSteep(threads int) *core.Steepest {
	st := core.NewSteepest(threads, resource.DefaultSizes()[resource.IntRename], metrics.WeightedIPC)
	st.ProbeCycles = steepEpoch
	return st
}

func committed(res Result) []uint64 {
	out := make([]uint64, len(res.Threads))
	for i, th := range res.Threads {
		out[i] = th.Committed
	}
	return out
}

// TestSteepProbesTheSpecEpoch pins STEEP-WIPC's probe horizon to the
// spec's EpochSize: simjob.Run must match a hand-driven core.Runner
// whose Steepest probes steepEpoch cycles. On art-mcf a 65,536-cycle
// horizon adopts [124 132] where the bound one keeps [128 128].
func TestSteepProbesTheSpecEpoch(t *testing.T) {
	const epochs, warmup = 3, 1
	got, err := Run(context.Background(), Spec{
		Workload: "art-mcf", Tech: "STEEP-WIPC", Epochs: epochs, EpochSize: steepEpoch, Warmup: warmup,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	w, err := workload.Parse("art-mcf")
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine(nil)
	m.CycleN(warmup * steepEpoch)
	st := newSteep(m.Threads())
	st.M = m
	r := core.NewRunner(m, st, metrics.WeightedIPC)
	r.EpochSize = steepEpoch
	st.Singles = r.Singles
	res := r.Run(epochs)

	want := make([]uint64, m.Threads())
	for th := range want {
		want[th] = m.Committed(th)
	}
	if !slices.Equal(committed(got), want) {
		t.Errorf("committed %v, hand-driven runner %v", committed(got), want)
	}
	if last := res[len(res)-1].Shares; !slices.Equal(got.FinalShares, []int(last)) {
		t.Errorf("final shares %v, hand-driven runner %v", got.FinalShares, last)
	}
}

// TestSteepProbesTheSpecEpochPerCore is the same pin for a 2-core spec:
// every core's climber probes steepEpoch cycles. Over six epochs a
// 65,536-cycle horizon moves every thread's committed count.
func TestSteepProbesTheSpecEpochPerCore(t *testing.T) {
	const epochs, warmup = 6, 1
	s := Spec{
		Workload: "art,mcf,fma3d,gcc", Tech: "STEEP-WIPC", Epochs: epochs,
		EpochSize: steepEpoch, Warmup: warmup, Cores: 2,
	}
	got, err := Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}

	s = s.Normalize()
	w, err := workload.Parse(s.Workload)
	if err != nil {
		t.Fatal(err)
	}
	pairing, err := multicore.PairingByName(s.Pairing, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sys := multicore.New(multicore.DefaultConfig(s.Cores), w.Streams(), nil)
	runners := make([]*core.Runner, s.Cores)
	for c := range runners {
		st := newSteep(multicore.ContextsPerCore)
		st.M = sys.Core(c)
		runners[c] = core.NewRunner(sys.Core(c), st, metrics.WeightedIPC)
		runners[c].EpochSize = steepEpoch
		st.Singles = runners[c].Singles
	}
	sys.CycleN(warmup * steepEpoch)
	d := &multicore.Driver{Sys: sys, Runners: runners, Pairing: pairing, EpochSize: steepEpoch}
	d.Run(epochs)

	want := make([]uint64, sys.Threads())
	for g := range want {
		want[g] = sys.ThreadStats(g).Committed
	}
	if !slices.Equal(committed(got), want) {
		t.Errorf("committed %v, hand-driven driver %v", committed(got), want)
	}
}
