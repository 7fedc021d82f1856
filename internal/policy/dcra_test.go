package policy

import (
	"slices"
	"testing"

	"smthill/internal/isa"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/trace"
)

// TestDCRAHysteresisHoldsClassification: after a thread's last miss
// clears, it stays classified slow for the hysteresis window, then
// reverts to fast.
func TestDCRAHysteresisHoldsClassification(t *testing.T) {
	// Build a machine that will never miss (tiny working set) so the
	// classification comes only from the knobs we poke.
	p := trace.Profile{Name: "t", Seed: 1, A: trace.Params{
		FracLoad: 0.1, FracStore: 0.05, ChainDep: 0.2,
		WorkingSet: 4 << 10, StridePct: 1.0, BranchNoise: 0,
	}}
	d := NewDCRA()
	d.Hysteresis = 50
	m := pipeline.New(pipeline.DefaultConfig(2),
		[]isa.Stream{trace.New(p), trace.New(p.Defaulted())}, d)
	m.CycleN(2_000) // warm: both threads all-hit, both fast

	if d.slow(m, 0) {
		t.Fatal("hit-only thread classified slow")
	}
	// Pretend thread 0 missed now.
	d.lastMiss[0] = m.Now() + 1
	m.CycleN(10)
	if !d.slow(m, 0) {
		t.Fatal("thread not held slow within the hysteresis window")
	}
	m.CycleN(100)
	if d.slow(m, 0) {
		t.Fatal("thread still slow after the hysteresis window")
	}
}

// TestDCRAEqualSplitWhenHomogeneous: when every thread has the same
// classification, DCRA's caps are equal.
func TestDCRAEqualSplitWhenHomogeneous(t *testing.T) {
	profs := []trace.Profile{ilpProfile(1), ilpProfile(2)}
	streams := []isa.Stream{trace.New(profs[0]), trace.New(profs[1])}
	m := pipeline.New(pipeline.DefaultConfig(2), streams, NewDCRA())
	m.CycleN(60_000) // past cold misses: both threads all-hit, both fast
	l0 := m.Resources().Limit(0, resource.IntRename)
	l1 := m.Resources().Limit(1, resource.IntRename)
	if l0 != l1 {
		t.Fatalf("homogeneous threads capped unevenly: %d vs %d", l0, l1)
	}
}

// TestDCRAVersionSteadyWithoutReclassification: DCRA rewrites its caps
// every cycle, but the resource table's version moves only on cycles
// where a cap changed. Between reclassifications the version holds, so
// the invariant checker's over-limit drain check (which compares
// occupancy across cycles of unchanged programming) has work to do.
func TestDCRAVersionSteadyWithoutReclassification(t *testing.T) {
	profs := []trace.Profile{memProfile(1), ilpProfile(2)}
	streams := []isa.Stream{trace.New(profs[0]), trace.New(profs[1])}
	m := pipeline.New(pipeline.DefaultConfig(2), streams, NewDCRA())
	m.SetInvariantChecks(true)
	res := m.Resources()
	limits := func() (out []int) {
		for th := 0; th < m.Threads(); th++ {
			for _, k := range partitioned {
				out = append(out, res.Limit(th, k))
			}
		}
		return out
	}
	const cycles = 20_000
	steady := 0
	for i := 0; i < cycles; i++ {
		before, v := limits(), res.Version()
		m.Cycle()
		moved := !slices.Equal(before, limits())
		if moved == (res.Version() == v) {
			t.Fatalf("cycle %d: caps moved=%v but version %d -> %d", m.Now(), moved, v, res.Version())
		}
		if !moved {
			steady++
		}
	}
	if steady < cycles/2 {
		t.Fatalf("only %d of %d cycles kept DCRA's programming; reclassification should be rare", steady, cycles)
	}
}
