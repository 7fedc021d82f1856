package smthill

import (
	"testing"

	"smthill/internal/pipeline"
	"smthill/internal/workload"
)

// TestCycleSteadyStateAllocFree pins the hot loop's zero-allocation
// contract: after a warmup long enough for every recycled slice (ROB,
// pending buffers, ready queue, completion ring, slab free list) to reach
// its high-water capacity, advancing the machine must not allocate at
// all. A regression here is a real performance bug — one allocation per
// cycle is worth roughly 10% of simulator throughput — so the test fails
// on any nonzero count rather than a threshold.
func TestCycleSteadyStateAllocFree(t *testing.T) {
	for _, name := range []string{"art-gzip", "art-mcf"} {
		m := workload.ByName(name).NewMachine(nil)
		m.CycleN(50_000) // reach steady-state capacities
		allocs := testing.AllocsPerRun(20, func() {
			m.CycleN(500)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Cycle allocates (%.1f allocs per 500 cycles, want 0)", name, allocs)
		}
	}
}

// TestCloneIntoMatchesClone verifies that the pooled checkpoint path is
// semantically identical to the allocating one: cloning a machine into a
// destination holding arbitrary diverged state must produce the same
// future execution as a fresh Clone, and must leave the source
// unperturbed.
func TestCloneIntoMatchesClone(t *testing.T) {
	src := workload.ByName("art-mcf").NewMachine(nil)
	src.CycleN(30_000)

	// Build a destination whose state has diverged well away from src's:
	// a clone advanced past extra work, so every recycled slice holds
	// stale contents that CloneInto must fully overwrite.
	dst := src.Clone()
	dst.CycleN(17_000)

	fresh := src.Clone()
	dst = src.CloneInto(dst)

	fresh.CycleN(10_000)
	dst.CycleN(10_000)
	if fresh.Stats() != dst.Stats() {
		t.Fatalf("CloneInto diverged from Clone after 10k cycles:\nclone:     %+v\ncloneinto: %+v", fresh.Stats(), dst.Stats())
	}
	for th := 0; th < src.Threads(); th++ {
		if fresh.ThreadStats(th) != dst.ThreadStats(th) {
			t.Fatalf("thread %d stats diverged:\nclone:     %+v\ncloneinto: %+v", th, fresh.ThreadStats(th), dst.ThreadStats(th))
		}
	}

	// The source must be unperturbed by having been cloned from: it
	// replays to the same point as its own pre-clone copy.
	src.CycleN(10_000)
	if src.Stats() != fresh.Stats() {
		t.Fatalf("source perturbed by CloneInto:\nsource: %+v\nclone:  %+v", src.Stats(), fresh.Stats())
	}
}

// TestCloneIntoSteadyStateAllocLight verifies the pooled checkpoint loop
// stays near allocation-free: recycling one destination machine, a
// CloneInto costs at most the policy's Clone and stray map/header
// allocations — single digits, versus ~70 for a full Clone.
func TestCloneIntoSteadyStateAllocLight(t *testing.T) {
	src := workload.ByName("art-gzip").NewMachine(nil)
	src.CycleN(20_000)
	var dst *pipeline.Machine
	dst = src.CloneInto(dst)
	allocs := testing.AllocsPerRun(20, func() {
		dst = src.CloneInto(dst)
	})
	if allocs > 4 {
		t.Errorf("pooled CloneInto allocates %.1f times per checkpoint, want <= 4", allocs)
	}
}

// TestCloneIntoReshapesDestination pins the contract that CloneInto
// accepts a destination of any shape: a machine recycled from a workload
// with a different thread count is reshaped and then replays exactly
// like a fresh Clone, in both directions.
func TestCloneIntoReshapesDestination(t *testing.T) {
	for _, c := range []struct{ src, dst string }{
		{"art-gzip", "art-mcf-swim-twolf"}, // 2 threads into 4
		{"art-mcf-swim-twolf", "art-gzip"}, // 4 threads into 2
	} {
		src := workload.ByName(c.src).NewMachine(nil)
		src.CycleN(20_000)
		dst := workload.ByName(c.dst).NewMachine(nil)
		dst.CycleN(15_000)

		fresh := src.Clone()
		dst = src.CloneInto(dst)
		fresh.CycleN(10_000)
		dst.CycleN(10_000)
		if fresh.Stats() != dst.Stats() {
			t.Fatalf("%s into %s: CloneInto diverged from Clone:\nclone:     %+v\ncloneinto: %+v", c.src, c.dst, fresh.Stats(), dst.Stats())
		}
		if dst.Threads() != src.Threads() {
			t.Fatalf("%s into %s: copy has %d threads, want %d", c.src, c.dst, dst.Threads(), src.Threads())
		}
		for th := 0; th < src.Threads(); th++ {
			if fresh.ThreadStats(th) != dst.ThreadStats(th) {
				t.Fatalf("%s into %s: thread %d stats diverged:\nclone:     %+v\ncloneinto: %+v", c.src, c.dst, th, fresh.ThreadStats(th), dst.ThreadStats(th))
			}
		}
	}
}
