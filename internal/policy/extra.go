package policy

import (
	"smthill/internal/pipeline"
)

// This file implements the remaining fetch-gating techniques surveyed in
// the paper's Section 2: the STALL-FLUSH hybrid (Tullsen & Brown), and
// DG / PDG (El-Moursy & Albonesi), which gate fetch on data-cache miss
// counts rather than on L2 misses. They give the experiment harness a
// complete set of published baselines.

// StallFlush is the hybrid of Tullsen & Brown: first fetch-lock the
// thread with the long-latency load (STALL); resort to flushing only if
// the shared resources become nearly exhausted while stalled, minimising
// wasted fetch bandwidth.
type StallFlush struct {
	// ExhaustionFrac is the fraction of total ROB occupancy above which
	// a stalled thread is flushed.
	ExhaustionFrac float64

	flush Flush
}

// NewStallFlush returns the hybrid with the default exhaustion threshold.
func NewStallFlush() *StallFlush {
	return &StallFlush{ExhaustionFrac: 0.9}
}

// Name implements pipeline.Policy.
func (*StallFlush) Name() string { return "STALL-FLUSH" }

// Cycle implements pipeline.Policy: while a thread is stalled on an L2
// miss and the machine is nearly full, flush past the oldest missing
// load to free its resources.
func (s *StallFlush) Cycle(m *pipeline.Machine) {
	s.flush.ensure(m)
	sizes := m.Resources().Sizes()
	robFull := float64(m.Resources().TotalOcc(robKind)) >= s.ExhaustionFrac*float64(sizes[robKind])
	if !robFull {
		return
	}
	for th := 0; th < m.Threads(); th++ {
		if m.OutstandingL2(th) > 0 && s.flush.pending[th] && !s.flush.pendingDone[th] {
			seq := s.flush.pendSeq[th]
			if s.flush.locked[th] && seq >= s.flush.lockSeq[th] {
				continue
			}
			m.FlushAfter(th, seq)
			s.flush.locked[th] = true
			s.flush.lockSeq[th] = seq
			s.flush.pending[th] = false
		}
	}
}

// FetchLocked implements pipeline.Policy: STALL-style lock while any L2
// miss is outstanding, plus the flush lock.
func (s *StallFlush) FetchLocked(m *pipeline.Machine, th int) bool {
	s.flush.ensure(m)
	return m.OutstandingL2(th) > 0 || s.flush.locked[th]
}

// OnL2Miss implements pipeline.Policy: remember the oldest outstanding
// miss as the potential flush point.
func (s *StallFlush) OnL2Miss(m *pipeline.Machine, th int, seq uint64) {
	s.flush.ensure(m)
	if s.flush.pending[th] && !s.flush.pendingDone[th] && s.flush.pendSeq[th] <= seq {
		return
	}
	s.flush.pending[th] = true
	s.flush.pendingDone[th] = false
	s.flush.pendSeq[th] = seq
}

// OnL2MissDone implements pipeline.Policy.
func (s *StallFlush) OnL2MissDone(m *pipeline.Machine, th int, seq uint64) {
	s.flush.ensure(m)
	if s.flush.locked[th] && seq == s.flush.lockSeq[th] {
		s.flush.locked[th] = false
	}
	if s.flush.pending[th] && seq == s.flush.pendSeq[th] {
		s.flush.pendingDone[th] = true
	}
}

// Horizon implements pipeline.Policy: the hybrid flushes on occupancy
// and miss state alone, never on a timer.
func (*StallFlush) Horizon(*pipeline.Machine) uint64 { return pipeline.Never }

// Clone implements pipeline.Policy.
func (s *StallFlush) Clone() pipeline.Policy {
	c := &StallFlush{ExhaustionFrac: s.ExhaustionFrac}
	c.flush = *s.flush.Clone().(*Flush)
	return c
}

// DG (data gating, El-Moursy & Albonesi) fetch-locks a thread whenever
// its number of in-flight DL1 misses exceeds a threshold, anticipating
// resource clog earlier than L2-miss-triggered schemes.
type DG struct {
	// Threshold is the outstanding-DL1-miss count above which fetch is
	// gated (the original paper gates at a small count).
	Threshold int
}

// NewDG returns the DG policy with threshold 2.
func NewDG() *DG { return &DG{Threshold: 2} }

// Name implements pipeline.Policy.
func (*DG) Name() string { return "DG" }

// Cycle implements pipeline.Policy.
func (*DG) Cycle(*pipeline.Machine) {}

// FetchLocked implements pipeline.Policy.
func (d *DG) FetchLocked(m *pipeline.Machine, th int) bool {
	return m.OutstandingDMiss(th) > d.Threshold
}

// OnL2Miss implements pipeline.Policy.
func (*DG) OnL2Miss(*pipeline.Machine, int, uint64) {}

// OnL2MissDone implements pipeline.Policy.
func (*DG) OnL2MissDone(*pipeline.Machine, int, uint64) {}

// Horizon implements pipeline.Policy: gating follows the outstanding
// miss count, which only issue and writeback change.
func (*DG) Horizon(*pipeline.Machine) uint64 { return pipeline.Never }

// Clone implements pipeline.Policy.
func (d *DG) Clone() pipeline.Policy { c := *d; return &c }

// PDG (predictive data gating) augments DG with a miss predictor: a
// per-thread table of load PCs that recently missed. A thread is gated
// when its predicted in-flight misses (actual outstanding misses plus
// pending predicted-miss loads) exceed the threshold. This reproduces the
// earlier gating of El-Moursy & Albonesi's predictive scheme with a
// simple tagged predictor.
type PDG struct {
	Threshold int

	// predictor state: per-thread direct-mapped tables of load-PC tags
	// with 2-bit miss counters.
	tables [][]pdgEntry
}

type pdgEntry struct {
	tag     uint32
	counter uint8
}

const pdgTableSize = 1024

// NewPDG returns the PDG policy with threshold 2.
func NewPDG() *PDG { return &PDG{Threshold: 2} }

// Name implements pipeline.Policy.
func (*PDG) Name() string { return "PDG" }

func (p *PDG) ensure(m *pipeline.Machine) {
	if p.tables == nil {
		p.tables = make([][]pdgEntry, m.Threads())
		for i := range p.tables {
			p.tables[i] = make([]pdgEntry, pdgTableSize)
		}
	}
}

// Cycle implements pipeline.Policy.
func (p *PDG) Cycle(m *pipeline.Machine) { p.ensure(m) }

// FetchLocked implements pipeline.Policy. PDG gates on the same
// outstanding-miss signal as DG but with a lower effective threshold when
// the thread has been missing recently (the predictor's aggregate bias),
// firing before the misses accumulate.
func (p *PDG) FetchLocked(m *pipeline.Machine, th int) bool {
	p.ensure(m)
	out := m.OutstandingDMiss(th)
	if out > p.Threshold {
		return true
	}
	// Predicted pressure: if the thread's recent loads mostly missed,
	// gate one miss earlier.
	if out == p.Threshold && p.bias(th) {
		return true
	}
	return false
}

// bias reports whether the thread's predictor is predominantly "miss".
func (p *PDG) bias(th int) bool {
	hot, total := 0, 0
	// Sampling a fixed stripe of the table keeps the check O(1)-ish per
	// cycle while tracking the thread's aggregate behaviour.
	for i := 0; i < pdgTableSize; i += 64 {
		e := p.tables[th][i]
		if e.counter >= 2 {
			hot++
		}
		if e.counter > 0 || e.tag != 0 {
			total++
		}
	}
	return total > 0 && hot*2 >= total
}

// Observe trains the predictor with a load outcome. The machine does not
// call this hook itself; OnL2Miss feeds it for misses, and the policy
// decays entries periodically.
func (p *PDG) observe(th int, pc uint32, miss bool) {
	e := &p.tables[th][pc%pdgTableSize]
	if e.tag != pc {
		*e = pdgEntry{tag: pc}
	}
	if miss {
		if e.counter < 3 {
			e.counter++
		}
	} else if e.counter > 0 {
		e.counter--
	}
}

// OnL2Miss implements pipeline.Policy: train toward "miss" for this
// thread (the sequence number stands in for the load PC at this
// granularity).
func (p *PDG) OnL2Miss(m *pipeline.Machine, th int, seq uint64) {
	p.ensure(m)
	p.observe(th, uint32(seq), true)
}

// OnL2MissDone implements pipeline.Policy.
func (p *PDG) OnL2MissDone(m *pipeline.Machine, th int, seq uint64) {
	p.ensure(m)
	p.observe(th, uint32(seq), false)
}

// Horizon implements pipeline.Policy: the predictor trains only on
// miss events, so gating has no timed component.
func (*PDG) Horizon(*pipeline.Machine) uint64 { return pipeline.Never }

// Clone implements pipeline.Policy.
func (p *PDG) Clone() pipeline.Policy {
	c := &PDG{Threshold: p.Threshold}
	if p.tables != nil {
		c.tables = make([][]pdgEntry, len(p.tables))
		for i := range p.tables {
			c.tables[i] = append([]pdgEntry(nil), p.tables[i]...)
		}
	}
	return c
}
