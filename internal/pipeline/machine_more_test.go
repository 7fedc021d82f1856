package pipeline

import (
	"testing"

	"smthill/internal/isa"
	"smthill/internal/resource"
	"smthill/internal/trace"
)

// TestPendingCompaction drives a thread far enough that the pending
// replay buffer's dead prefix is compacted (the >= 512 path in
// commitOne), then verifies execution and flush-replay still behave.
func TestPendingCompaction(t *testing.T) {
	m := newMachine(t, 1, []trace.Profile{ilpProfile(1)}, nil)
	m.CycleN(10_000) // thousands of commits -> several compactions
	if m.Committed(0) < 2_000 {
		t.Fatalf("committed %d; compaction path not exercised", m.Committed(0))
	}
	// Flush after compaction must still rewind correctly.
	tst := &m.threads[0]
	if len(tst.liveROB()) > 2 {
		headSeq := m.slab[tst.liveROB()[0].idx].inst.Seq
		before := m.Committed(0)
		m.FlushAfter(0, headSeq)
		m.CycleN(5_000)
		if m.Committed(0) <= before {
			t.Fatal("no progress after post-compaction flush")
		}
	}
}

func TestBBVAccumulatesAndResets(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{ilpProfile(1), ilpProfile(2)}, nil)
	m.CycleN(10_000)
	bbv := m.BBV(0)
	sum := uint64(0)
	for _, v := range bbv {
		sum += uint64(v)
	}
	if sum != m.Committed(0) {
		t.Fatalf("BBV sums to %d, committed %d", sum, m.Committed(0))
	}
	m.ResetBBV(0)
	if m.BBV(0) != [BBVEntries]uint32{} {
		t.Fatal("ResetBBV left residue")
	}
	// Thread 1's vector is untouched by thread 0's reset.
	if m.BBV(1) == [BBVEntries]uint32{} {
		t.Fatal("thread 1 BBV empty after activity")
	}
}

func TestSetPolicySwitch(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{memProfile(1), ilpProfile(2)}, nil)
	m.CycleN(10_000)
	if m.Policy().Name() != "ICOUNT" {
		t.Fatal("default policy wrong")
	}
	m.SetPolicy(nil)
	if m.Policy().Name() != "ICOUNT" {
		t.Fatal("nil SetPolicy did not restore ICOUNT")
	}
	// Swapping policies mid-run keeps the machine consistent.
	m.SetPolicy(stubPolicy{})
	m.CycleN(10_000)
	if m.Stats().Committed == 0 {
		t.Fatal("machine stopped after policy swap")
	}
}

// stubPolicy locks nothing and counts nothing; it exists to exercise the
// policy plumbing.
type stubPolicy struct{}

func (stubPolicy) Name() string                       { return "stub" }
func (stubPolicy) Cycle(*Machine)                     {}
func (stubPolicy) FetchLocked(*Machine, int) bool     { return false }
func (stubPolicy) OnL2Miss(*Machine, int, uint64)     {}
func (stubPolicy) OnL2MissDone(*Machine, int, uint64) {}
func (stubPolicy) Horizon(*Machine) uint64            { return Never }
func (stubPolicy) Clone() Policy                      { return stubPolicy{} }

func TestStallExtendsNotShortens(t *testing.T) {
	m := newMachine(t, 1, []trace.Profile{ilpProfile(1)}, nil)
	m.Stall(100)
	m.Stall(50) // must not shorten the pending stall
	before := m.Committed(0)
	m.CycleN(90)
	if m.Committed(0) != before {
		t.Fatal("stall was shortened by a smaller request")
	}
}

func TestSlabNeverLeaks(t *testing.T) {
	// Run a flush-heavy configuration and verify the slab free list
	// recovers all slots once the pipeline drains.
	streams := []isa.Stream{trace.NewLimited(memProfile(1), 20_000)}
	m := New(DefaultConfig(1), streams, nil)
	for i := 0; i < 400_000 && !m.Done(); i++ {
		m.Cycle()
		if i%5_000 == 0 && len(m.threads[0].liveROB()) > 1 {
			headSeq := m.slab[m.threads[0].liveROB()[0].idx].inst.Seq
			m.FlushAfter(0, headSeq)
		}
	}
	if !m.Done() {
		t.Fatal("machine did not drain")
	}
	if got := len(m.free); got != len(m.slab) {
		t.Fatalf("slab leaked: %d/%d slots free after drain", got, len(m.slab))
	}
	for k := resource.Kind(0); k < resource.NumKinds; k++ {
		if m.res.TotalOcc(k) != 0 {
			t.Fatalf("%v occupancy %d after drain", k, m.res.TotalOcc(k))
		}
	}
}

func TestMachineRejectsTooManyContexts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for too many contexts")
		}
	}()
	streams := make([]isa.Stream, maxContexts+1)
	for i := range streams {
		streams[i] = trace.New(ilpProfile(1))
	}
	New(DefaultConfig(maxContexts+1), streams, nil)
}

func TestProportionalLimitsProgrammedTogether(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{ilpProfile(1), ilpProfile(2)}, nil)
	m.Resources().SetShares(resource.Shares{64, 192})
	// 64/256 of the machine: IQ 20, ROB 128.
	if got := m.Resources().Limit(0, resource.IntIQ); got != 20 {
		t.Fatalf("IQ limit %d", got)
	}
	if got := m.Resources().Limit(0, resource.ROB); got != 128 {
		t.Fatalf("ROB limit %d", got)
	}
	m.CycleN(30_000)
	// Under pressure the thread respects all three limits.
	if occ := m.Resources().Occ(0, resource.ROB); occ > 128 {
		t.Fatalf("ROB occupancy %d over proportional limit", occ)
	}
}

func TestFlushAtSeqZeroBoundary(t *testing.T) {
	m := newMachine(t, 1, []trace.Profile{memProfile(5)}, nil)
	m.CycleN(2_000)
	// Flushing after seq 0 squashes everything but instruction 0 (if in
	// flight); the machine must recover.
	m.FlushAfter(0, 0)
	m.CycleN(30_000)
	if m.Committed(0) < 1_000 {
		t.Fatalf("machine crippled after aggressive flush: %d", m.Committed(0))
	}
}

func TestMispredictPenaltyConfigurable(t *testing.T) {
	noisy := ilpProfile(1)
	noisy.A.BranchNoise = 0.2
	run := func(penalty int) uint64 {
		cfg := DefaultConfig(1)
		cfg.MispredictPenalty = penalty
		m := New(cfg, []isa.Stream{trace.New(noisy)}, nil)
		m.CycleN(60_000)
		return m.Committed(0)
	}
	if run(40) >= run(4) {
		t.Fatal("larger mispredict penalty did not reduce throughput")
	}
}
