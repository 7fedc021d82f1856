package pipeline

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"smthill/internal/isa"
	"smthill/internal/resource"
)

// climberShares enumerates the share configurations a Delta-step hill
// climber can reach from the equal split within a few rounds: the
// breadth-first closure of Shares.Shift over all directions. These are
// exactly the sibling configurations the batched trial loops evaluate.
func climberShares(threads, total, delta, rounds int) []resource.Shares {
	seen := map[string]bool{}
	var out []resource.Shares
	add := func(s resource.Shares) bool {
		key := fmt.Sprint(s)
		if seen[key] {
			return false
		}
		seen[key] = true
		out = append(out, s)
		return true
	}
	frontier := []resource.Shares{resource.EqualShares(threads, total)}
	add(frontier[0])
	for r := 0; r < rounds; r++ {
		var next []resource.Shares
		for _, a := range frontier {
			for d := 0; d < threads; d++ {
				if s := a.Shift(d, delta); add(s) {
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return out
}

// TestBatchMatchesIndependentMachines is the K-member-vs-K-machines
// determinism golden: a MachineBatch whose members run every
// climber-reachable share configuration must be per-cycle FNV-identical
// to K independently built and independently decoded machines running
// the same configurations. Fetch timing diverges across configurations;
// fetch content may not.
func TestBatchMatchesIndependentMachines(t *testing.T) {
	for _, s := range wakeupScenarios() {
		t.Run(s.name, func(t *testing.T) {
			shares := climberShares(2, DefaultConfig(2).Resources[resource.IntRename], 4, 2)
			k := len(shares)
			if k < 5 {
				t.Fatalf("only %d climber-reachable configurations", k)
			}

			// Independent reference: each machine owns a private copy of
			// the fixture streams, so decode genuinely happens K times.
			refs := make([]*Machine, k)
			for i := range refs {
				refs[i] = New(DefaultConfig(2), s.streams(), nil)
				refs[i].Resources().SetShares(shares[i])
			}

			src := New(DefaultConfig(2), s.streams(), nil)
			b := BatchFrom(src, k)
			for i := 0; i < k; i++ {
				b.Member(i).Resources().SetShares(shares[i])
			}

			for c := 0; c < s.cycles; c++ {
				b.CycleAll()
				for i := 0; i < k; i++ {
					refs[i].Cycle()
					got, want := traceHash(b.Member(i)), traceHash(refs[i])
					if got != want {
						t.Fatalf("member %d (shares %v) diverges at cycle %d: %016x != %016x",
							i, shares[i], c, got, want)
					}
				}
			}
		})
	}
}

// TestBatchSingleMemberReproducesGoldens replays the committed wakeup
// golden traces through a one-member batch: the batch path must
// reproduce the pinned standalone per-cycle hashes bit for bit, shared
// decode notwithstanding.
func TestBatchSingleMemberReproducesGoldens(t *testing.T) {
	for _, s := range wakeupScenarios() {
		t.Run(s.name, func(t *testing.T) {
			want := runWakeupTrace(s)

			b := BatchFrom(New(DefaultConfig(2), s.streams(), nil), 1)
			m := b.Member(0)
			var got []string
			cum := newCumHash()
			for c := 0; c < s.cycles; c++ {
				if s.flushEvery > 0 && c > 0 && c%s.flushEvery == 0 {
					m.FlushAfter(0, m.Committed(0)+s.keep)
				}
				b.CycleAll()
				h := traceHash(m)
				cum.add(h)
				if c < 512 || c%64 == 0 {
					got = append(got, fmt.Sprintf("cycle %d hash %016x", c, h))
				}
			}
			got = append(got, fmt.Sprintf("cumulative %016x", cum.sum()))
			for th := 0; th < m.Threads(); th++ {
				st := m.ThreadStats(th)
				got = append(got, fmt.Sprintf(
					"final th%d fetched %d dispatched %d issued %d committed %d flushes %d flushed %d mispredicts %d",
					th, st.Fetched, st.Dispatched, st.Issued, st.Committed, st.Flushes, st.Flushed, st.Mispredicts))
			}

			if len(got) != len(want) {
				t.Fatalf("trace length %d, standalone %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batch trace diverges from standalone at line %d:\n  got  %s\n  want %s", i+1, got[i], want[i])
				}
			}
		})
	}
}

// TestBatchParallelMatchesSerial runs the same configured batch serially
// and spread over 2, 3 and 4 goroutines (uneven spans included) over
// frozen pre-filled windows, and requires identical per-member final
// hashes. Under -race this also proves the freeze discipline leaves the
// spans sharing only read-only state.
func TestBatchParallelMatchesSerial(t *testing.T) {
	shares := climberShares(2, DefaultConfig(2).Resources[resource.IntRename], 4, 2)
	k := len(shares)
	run := func(workers int) []uint64 {
		s := wakeupScenarios()[0]
		b := BatchFrom(New(DefaultConfig(2), s.streams(), nil), k)
		for i := 0; i < k; i++ {
			b.Member(i).Resources().SetShares(shares[i])
		}
		b.CycleFirstN(k, 2500, workers)
		out := make([]uint64, k)
		for i := range out {
			out[i] = traceHash(b.Member(i))
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 4} {
		parallel := run(workers)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%d goroutines, member %d: parallel hash %016x != serial %016x", workers, i, parallel[i], serial[i])
			}
		}
	}
}

// panicPolicy is ICOUNT that panics on its first cycle.
type panicPolicy struct{ NilPolicy }

func (panicPolicy) Cycle(*Machine) { panic("member diverged") }

// TestBatchParallelPanicReachesCaller: a member panicking on a spawned
// goroutine must not take down the process. The panic is re-raised on
// the caller after every span has finished (the leak gate in TestMain
// sees no straggler), and the windows are thawed so the batch keeps
// working serially after a refill.
func TestBatchParallelPanicReachesCaller(t *testing.T) {
	s := wakeupScenarios()[0]
	b := BatchFrom(New(DefaultConfig(2), s.streams(), nil), 4)
	b.Member(3).SetPolicy(panicPolicy{})
	func() {
		defer func() {
			if p := recover(); p != "member diverged" {
				t.Fatalf("recovered %v, want the member's panic", p)
			}
		}()
		b.CycleFirstN(4, 100, 4)
		t.Fatal("CycleFirstN returned despite a panicking member")
	}()
	b.Refill(nil)
	b.CycleAllN(100)
}

// TestBatchRefillCopyAdoption exercises the trial-loop protocol: refill
// members from a checkpoint, advance, copy the winner out into a held
// machine, exchange the live and held machines, and refill the next
// wave from the adopted copy. The adopted machine must stay identical
// to an independently maintained reference machine, cycle for cycle.
func TestBatchRefillCopyAdoption(t *testing.T) {
	s := wakeupScenarios()[1]
	// A step wide enough that the shares bind, so members diverge and
	// copying out the wrong one is caught.
	shares := climberShares(2, DefaultConfig(2).Resources[resource.IntRename], 96, 1)
	k := len(shares)

	live := New(DefaultConfig(2), s.streams(), nil)
	ref := New(DefaultConfig(2), s.streams(), nil)
	b := BatchFrom(live, k)

	const epoch = 700
	var held *Machine
	winner := 0
	for round := 0; round < 3; round++ {
		b.Refill(live)
		for i := 0; i < k; i++ {
			b.Member(i).Resources().SetShares(shares[i])
		}
		b.CycleAllN(epoch)

		// Reference: clone the reference checkpoint, run the winning
		// configuration independently, adopt it.
		winner = (winner + 2) % k
		refTrial := ref.Clone()
		refTrial.Resources().SetShares(shares[winner])
		refTrial.CycleN(epoch)
		ref = refTrial

		held = b.Member(winner).CloneInto(held)
		live, held = held, live
		if got, want := traceHash(live), traceHash(ref); got != want {
			t.Fatalf("round %d: adopted winner hash %016x != reference %016x", round, got, want)
		}
	}
	// The adopted copy advances on its own, still in step with the
	// reference, while the batch's members sit stale.
	for c := 0; c < epoch; c++ {
		live.Cycle()
		ref.Cycle()
		if got, want := traceHash(live), traceHash(ref); got != want {
			t.Fatalf("cycle %d after adoption: hash %016x != reference %016x", c, got, want)
		}
	}
}

// cumHashT accumulates per-cycle hashes exactly as runWakeupTrace does.
type cumHashT struct{ h hash.Hash64 }

func newCumHash() cumHashT { return cumHashT{h: fnv.New64a()} }

func (c cumHashT) add(v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	c.h.Write(buf[:])
}

func (c cumHashT) sum() uint64 { return c.h.Sum64() }

// TestBatchSteadyStateAllocFree pins the batch trial loop's
// zero-allocation contract: after the first refill+run round has grown
// every buffer to its high-water mark, further rounds (pooled refill,
// shared-window fill, lock-step chunks) allocate nothing.
func TestBatchSteadyStateAllocFree(t *testing.T) {
	streams := func() []isa.Stream {
		return []isa.Stream{
			newLoopStream(chainFixture(4000)),
			newLoopStream(l2missFixture(3000)),
		}
	}
	src := New(DefaultConfig(2), streams(), nil)
	src.CycleN(5000) // reach pipeline steady state before batching
	b := BatchFrom(src, 4)
	round := func() {
		b.Refill(nil)
		b.CycleAllN(2000)
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state batch round allocates %.1f, want 0", allocs)
	}
}

// loopStream repeats a fixture forever with re-stamped monotonic
// sequence numbers, so alloc tests can run unbounded.
type loopStream struct {
	insts []isa.Inst
	pos   int
	seq   uint64
}

func newLoopStream(insts []isa.Inst) *loopStream { return &loopStream{insts: insts} }

func (s *loopStream) Next(out *isa.Inst) bool {
	*out = s.insts[s.pos]
	s.pos = (s.pos + 1) % len(s.insts)
	s.seq++
	out.Seq = s.seq
	return true
}

func (s *loopStream) CloneStream(isa.Stream) isa.Stream {
	c := *s
	return &c
}
