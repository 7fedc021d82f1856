// Package policy implements the previously published SMT resource
// distribution techniques the paper compares against (Section 2):
//
//   - ICOUNT (Tullsen et al., ISCA 1996): the fetch policy alone; the
//     pipeline's fetch stage always ranks threads by ICOUNT, so the
//     baseline is pipeline.NilPolicy and needs nothing from this package.
//   - STALL (Tullsen & Brown, MICRO 2001): fetch-lock a thread while it
//     has a long-latency (L2-missing) load outstanding.
//   - FLUSH (Tullsen & Brown, MICRO 2001): additionally squash the
//     stalled thread's instructions after the missing load, freeing the
//     shared resources it holds until the load returns.
//   - DCRA (Cazorla et al., MICRO 2004): continuously partition the
//     shared structures, giving memory-bound ("slow") threads larger
//     partitions while containing them so they cannot clog the pipeline.
//
// These run as pipeline.Policy per-cycle mechanisms. The paper's
// learning-based techniques live in internal/core and operate at epoch
// granularity instead.
package policy

import (
	"smthill/internal/pipeline"
	"smthill/internal/resource"
)

// robKind aliases the partitioned reorder buffer for the policies that
// monitor machine fullness.
const robKind = resource.ROB

// Stall fetch-locks any thread with an outstanding L2 miss. It is the
// STALL technique of Tullsen & Brown: the stalled thread stops consuming
// fetch bandwidth and new resources until its miss resolves, but the
// resources it already holds stay clogged.
type Stall struct{}

// NewStall returns the STALL policy.
func NewStall() *Stall { return &Stall{} }

// Name implements pipeline.Policy.
func (*Stall) Name() string { return "STALL" }

// Cycle implements pipeline.Policy.
func (*Stall) Cycle(*pipeline.Machine) {}

// FetchLocked implements pipeline.Policy: locked while any L2 miss is
// outstanding.
func (*Stall) FetchLocked(m *pipeline.Machine, th int) bool {
	return m.OutstandingL2(th) > 0
}

// OnL2Miss implements pipeline.Policy.
func (*Stall) OnL2Miss(*pipeline.Machine, int, uint64) {}

// OnL2MissDone implements pipeline.Policy.
func (*Stall) OnL2MissDone(*pipeline.Machine, int, uint64) {}

// Horizon implements pipeline.Policy: the lock follows the outstanding
// miss count, which only issue and writeback change.
func (*Stall) Horizon(*pipeline.Machine) uint64 { return pipeline.Never }

// Clone implements pipeline.Policy.
func (s *Stall) Clone() pipeline.Policy { c := *s; return &c }

// DefaultFlushThreshold is the number of cycles a long-latency load stays
// outstanding before FLUSH fires (Tullsen & Brown trigger once a load
// exceeds the L2 hit latency by a margin). The delay matters: it lets the
// sibling misses already in the window issue — preserving the thread's
// miss clustering — before the flush squashes the rest.
const DefaultFlushThreshold = 15

// Flush is the FLUSH technique of Tullsen & Brown: once a load has been
// outstanding past the threshold (an L2 miss), all of the thread's
// instructions younger than the load are squashed (releasing the shared
// resources they hold) and the thread is fetch-locked until the load's
// data returns.
type Flush struct {
	// Threshold is the trigger delay in cycles after L2-miss detection.
	Threshold int

	locked  []bool
	lockSeq []uint64
	// Pending trigger per thread: the oldest detected miss not yet
	// flushed, and the cycle its threshold expires.
	pending     []bool
	pendSeq     []uint64
	pendFire    []uint64
	pendingDone []bool // set when the pending load completed before firing
}

// NewFlush returns the FLUSH policy.
func NewFlush() *Flush { return &Flush{Threshold: DefaultFlushThreshold} }

// Name implements pipeline.Policy.
func (*Flush) Name() string { return "FLUSH" }

func (f *Flush) ensure(m *pipeline.Machine) {
	if f.locked == nil {
		t := m.Threads()
		f.locked = make([]bool, t)
		f.lockSeq = make([]uint64, t)
		f.pending = make([]bool, t)
		f.pendSeq = make([]uint64, t)
		f.pendFire = make([]uint64, t)
		f.pendingDone = make([]bool, t)
	}
}

// Cycle implements pipeline.Policy: fire expired triggers.
func (f *Flush) Cycle(m *pipeline.Machine) {
	f.ensure(m)
	for th := range f.pending {
		if !f.pending[th] || m.Now() < f.pendFire[th] {
			continue
		}
		f.pending[th] = false
		if f.pendingDone[th] {
			continue // the load returned before the threshold expired
		}
		seq := f.pendSeq[th]
		if f.locked[th] && seq >= f.lockSeq[th] {
			continue
		}
		m.FlushAfter(th, seq)
		f.locked[th] = true
		f.lockSeq[th] = seq
	}
}

// FetchLocked implements pipeline.Policy.
func (f *Flush) FetchLocked(m *pipeline.Machine, th int) bool {
	f.ensure(m)
	return f.locked[th]
}

// OnL2Miss implements pipeline.Policy: arm (or re-arm, for an older
// load) the thread's flush trigger.
func (f *Flush) OnL2Miss(m *pipeline.Machine, th int, seq uint64) {
	f.ensure(m)
	if f.locked[th] && seq >= f.lockSeq[th] {
		return
	}
	if f.pending[th] && !f.pendingDone[th] && f.pendSeq[th] <= seq {
		return // an older trigger is already armed
	}
	f.pending[th] = true
	f.pendingDone[th] = false
	f.pendSeq[th] = seq
	f.pendFire[th] = m.Now() + uint64(f.Threshold)
}

// OnL2MissDone implements pipeline.Policy: unlock when the load we are
// waiting on returns; disarm a pending trigger whose load returned.
func (f *Flush) OnL2MissDone(m *pipeline.Machine, th int, seq uint64) {
	f.ensure(m)
	if f.locked[th] && seq == f.lockSeq[th] {
		f.locked[th] = false
	}
	if f.pending[th] && seq == f.pendSeq[th] {
		f.pendingDone[th] = true
	}
}

// Horizon implements pipeline.Policy: the earliest armed trigger's
// firing cycle.
func (f *Flush) Horizon(*pipeline.Machine) uint64 {
	h := pipeline.Never
	for th, armed := range f.pending {
		if armed {
			h = min(h, f.pendFire[th])
		}
	}
	return h
}

// Clone implements pipeline.Policy.
func (f *Flush) Clone() pipeline.Policy {
	c := &Flush{Threshold: f.Threshold}
	c.locked = append([]bool(nil), f.locked...)
	c.lockSeq = append([]uint64(nil), f.lockSeq...)
	c.pending = append([]bool(nil), f.pending...)
	c.pendSeq = append([]uint64(nil), f.pendSeq...)
	c.pendFire = append([]uint64(nil), f.pendFire...)
	c.pendingDone = append([]bool(nil), f.pendingDone...)
	return c
}

// DCRA dynamically partitions the shared structures every cycle based on
// each thread's memory behaviour, following Cazorla et al.: a thread with
// an outstanding DL1 miss is "slow" and receives a partition C times the
// size of a "fast" thread's, letting it exploit parallelism beyond its
// stalled loads while containing it so it cannot clog the machine.
//
// The published DCRA derives per-structure sharing from activity
// vectors; this implementation applies the fast/slow weighting to the
// three structures the paper partitions (integer IQ, integer rename
// registers, ROB), which is the behaviour the paper's comparison depends
// on. The weight C is configurable (4 by default, mirroring the strong
// bias toward slow threads in the original).
type DCRA struct {
	// C is the slow:fast partition weight ratio.
	C int
	// Hysteresis is how long (in cycles) a thread stays classified
	// "slow" after its last outstanding DL1 miss clears. The original
	// DCRA classifies from hardware miss counters sampled over short
	// intervals; without this smoothing, a cycle-granular classifier
	// exploits sub-interval gaps between misses in a way the published
	// hardware could not.
	Hysteresis uint64

	lastMiss []uint64
	// slowSet (bit th) and version (the table's Version right after the
	// write) record the last time Cycle wrote the limits. While both
	// still hold, the limits in force are the ones slowSet derives, and
	// Cycle leaves them be. version 0 means never written: a Table
	// starts at version 1.
	slowSet uint32
	version uint64
}

// NewDCRA returns the DCRA policy with the default parameters.
func NewDCRA() *DCRA { return &DCRA{C: 4, Hysteresis: 64} }

// slow classifies thread th, applying the hysteresis window.
func (d *DCRA) slow(m *pipeline.Machine, th int) bool {
	if d.lastMiss == nil {
		d.lastMiss = make([]uint64, m.Threads())
	}
	if m.OutstandingDMiss(th) > 0 {
		d.lastMiss[th] = m.Now() + 1
		return true
	}
	return d.lastMiss[th] > 0 && m.Now()-(d.lastMiss[th]-1) < d.Hysteresis
}

// Name implements pipeline.Policy.
func (*DCRA) Name() string { return "DCRA" }

// partitioned lists the structures DCRA caps, matching the set the
// paper's learning techniques partition.
var partitioned = [...]resource.Kind{resource.IntIQ, resource.IntRename, resource.ROB}

// Cycle implements pipeline.Policy: reclassify threads and reprogram the
// partition limits. Every thread is reclassified every cycle (slow
// advances the hysteresis window); the limits are rewritten only when
// the slow set or the table's programming changed since the last write.
func (d *DCRA) Cycle(m *pipeline.Machine) {
	t := m.Threads()
	res := m.Resources()
	slowCount := 0
	var slowSet uint32
	for th := 0; th < t; th++ {
		if d.slow(m, th) {
			slowSet |= 1 << th
			slowCount++
		}
	}
	if slowSet == d.slowSet && res.Version() == d.version {
		return
	}
	fast := t - slowCount
	den := fast + d.C*slowCount
	sizes := res.Sizes()
	for _, k := range partitioned {
		e := sizes[k]
		for th := 0; th < t; th++ {
			share := e / den
			if slowSet&(1<<th) != 0 {
				share = d.C * e / den
			}
			res.SetLimit(th, k, share)
		}
	}
	d.slowSet, d.version = slowSet, res.Version()
}

// FetchLocked implements pipeline.Policy. DCRA's containment works
// through the partition limits (the machine fetch-locks a thread at its
// limit), so no extra locking is needed.
func (*DCRA) FetchLocked(*pipeline.Machine, int) bool { return false }

// OnL2Miss implements pipeline.Policy.
func (*DCRA) OnL2Miss(*pipeline.Machine, int, uint64) {}

// OnL2MissDone implements pipeline.Policy.
func (*DCRA) OnL2MissDone(*pipeline.Machine, int, uint64) {}

// Horizon implements pipeline.Policy: the earliest cycle a slow thread
// with no DL1 miss outstanding turns fast as its hysteresis window
// closes. A thread with a miss outstanding stays slow until writeback
// clears it.
func (d *DCRA) Horizon(m *pipeline.Machine) uint64 {
	h := pipeline.Never
	for th, last := range d.lastMiss {
		if last == 0 || m.OutstandingDMiss(th) > 0 {
			continue
		}
		if expiry := last - 1 + d.Hysteresis; expiry >= m.Now() {
			h = min(h, expiry)
		}
	}
	return h
}

// Clone implements pipeline.Policy.
func (d *DCRA) Clone() pipeline.Policy {
	c := *d
	c.lastMiss = append([]uint64(nil), d.lastMiss...)
	c.version = 0 // the copy's machine may hold another table; rewrite once
	return &c
}

// ByName returns a fresh policy instance for a report/CLI name:
// "ICOUNT", "STALL", "FLUSH", or "DCRA". It returns nil for "ICOUNT"
// (the machine's built-in fetch policy) and panics on unknown names.
func ByName(name string) pipeline.Policy {
	switch name {
	case "ICOUNT":
		return pipeline.NilPolicy{}
	case "STALL":
		return NewStall()
	case "FLUSH":
		return NewFlush()
	case "DCRA":
		return NewDCRA()
	case "STALL-FLUSH":
		return NewStallFlush()
	case "DG":
		return NewDG()
	case "PDG":
		return NewPDG()
	default:
		panic("policy: unknown policy " + name)
	}
}
