package pipeline

import (
	"fmt"

	"smthill/internal/isa"
)

// ContextState is a thread's architectural state lifted out of a
// hardware context so it can be re-installed on another core: the point
// in its instruction stream (with any fetched-but-uncommitted
// instructions folded back in as a replay prefix) and its address-space
// base. Pipeline statistics deliberately stay with the hardware context
// — they are monotonic seat counters, and the multicore System does the
// per-logical-thread accounting across moves.
type ContextState struct {
	// Stream continues the thread's committed-path instruction sequence
	// exactly where the source core left off.
	Stream isa.Stream
	// AddrBase is the thread's address-space offset; it must travel
	// with the thread so its working set stays in one place in the
	// shared last-level cache.
	AddrBase uint64
}

// ExtractContext drains thread th out of the machine: every in-flight
// instruction is squashed (this is a migration, not a misprediction, so
// no flush statistics are charged), the fetched-but-uncommitted
// instructions become a replay prefix on the returned stream, and the
// hardware context is left empty and fetch-idle (exhausted). The
// returned ContextState owns the thread's stream; install it on another
// machine with InstallContext.
//
// This is the multicore migration primitive. It is never called on the
// single-core hot path.
func (m *Machine) ExtractContext(th int) ContextState {
	t := &m.threads[th]

	// Squash the whole ROB tail, youngest first, exactly as FlushAfter
	// does — but unconditionally and without charging flush stats.
	for len(t.rob) > t.robHead {
		r := t.rob[len(t.rob)-1]
		e := m.get(r)
		if e == nil {
			panic("pipeline: stale ref in ROB tail")
		}
		// A squashed in-flight L2 miss will never complete; tell the
		// policy so FLUSH/STALL-style triggers armed on it release.
		if e.l2miss && !e.done {
			m.policy.OnL2MissDone(m, th, e.inst.Seq)
		}
		m.squash(th, r, e)
		t.rob = t.rob[:len(t.rob)-1]
	}

	// Everything decoded but uncommitted replays on the new core.
	var prefix []isa.Inst
	if n := len(t.pending) - t.pendingHead; n > 0 {
		prefix = make([]isa.Inst, n)
		copy(prefix, t.pending[t.pendingHead:])
	}
	cs := ContextState{
		Stream:   isa.Prefixed(prefix, t.stream),
		AddrBase: t.addrBase,
	}

	if t.outstandingL2 != 0 || t.outstandingDMiss != 0 {
		panic(fmt.Sprintf("pipeline: ExtractContext(%d) left outstanding misses (L2=%d DL1=%d)",
			th, t.outstandingL2, t.outstandingDMiss))
	}

	// Leave the seat empty: no stream, no fetch, clean front end.
	t.resetSeat(nil)
	return cs
}

// InstallContext binds an extracted thread context to hardware context
// th, which must be empty (freshly built, or drained by a prior
// ExtractContext). The thread resumes fetching from the context's
// stream on the next cycle; its BBV restarts from zero on the new core.
func (m *Machine) InstallContext(th int, cs ContextState) {
	t := &m.threads[th]
	if len(t.rob) > t.robHead || len(t.pending) > t.pendingHead {
		panic(fmt.Sprintf("pipeline: InstallContext(%d) into a non-empty context", th))
	}
	if cs.Stream == nil {
		panic("pipeline: InstallContext with a nil stream")
	}
	t.resetSeat(cs.Stream)
	t.addrBase = cs.AddrBase
	t.bbv = [BBVEntries]uint32{}
	// The seat's program-order watermark belongs to the departed thread;
	// the incoming one has its own sequence numbering.
	if m.inv != nil {
		m.inv.lastCommitSeq[th] = 0
	}
}

// SetAddrBase overrides hardware context th's address-space base before
// simulation starts. The multicore System uses it to give every logical
// thread a globally disjoint region: the per-machine default bases
// repeat across cores and would alias different threads' working sets
// in the shared L3.
func (m *Machine) SetAddrBase(th int, base uint64) {
	m.threads[th].addrBase = base
}

// resetSeat empties the context's front end and ROB bookkeeping and
// binds stream to it; a nil stream leaves the seat fetch-idle. New,
// ExtractContext and InstallContext all start from this state.
func (t *threadState) resetSeat(stream isa.Stream) {
	t.stream = stream
	t.pending = t.pending[:0]
	t.pendingHead, t.dispatchCur, t.fetchCur = 0, 0, 0
	t.rob = t.rob[:0]
	t.robHead = 0
	t.exhausted = stream == nil
	t.fetchStall = 0
	t.mispredictPending = false
	t.fetchStallICache = false
	t.lastFetchBlock = 0
	for i := range t.rename {
		t.rename[i] = noRef
	}
}

// GlobalAddrBase returns the canonical address-space base for global
// logical thread g; New gives context t the base GlobalAddrBase(t), and
// the multicore System re-bases every context by its system-wide id.
// Each thread gets a disjoint region. The sub-region stagger is an odd
// number of cache lines so different threads' hot blocks spread across
// cache sets — a pure power-of-two offset would alias every thread onto
// the same sets and thrash the shared 2-way caches once more than two
// contexts run.
func GlobalAddrBase(g int) uint64 {
	return uint64(g)<<44 + uint64(g)*37*64
}
