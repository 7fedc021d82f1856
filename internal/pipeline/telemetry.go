package pipeline

import (
	"smthill/internal/resource"
	"smthill/internal/telemetry"
)

// record fills the attached telemetry recorder for k identical cycles
// starting at the current one: per-thread occupancy samples, L2-miss
// exposure, and one stall attribution each for fetch and dispatch. Cycle
// records one cycle after its stages have settled; CycleN records a
// skipped quiet stretch in one call, since nothing it samples changes
// across the stretch. It runs only when a recorder is attached (one
// nil-check branch in Cycle), so the uninstrumented hot loop stays
// within the <2% overhead contract pinned by BenchmarkSimulatorSpeed.
func (m *Machine) record(stalled bool, k uint64) {
	rec := m.rec
	if rec == nil {
		return
	}
	rec.Cycles += k
	if stalled {
		rec.Stalled += k
	}
	for th := range m.threads {
		t := &m.threads[th]
		c := &rec.Threads[th]
		c.IQOcc.ObserveN(m.res.Occ(th, resource.IntIQ)+m.res.Occ(th, resource.FpIQ), k)
		c.ROBOcc.ObserveN(m.res.Occ(th, resource.ROB), k)
		if t.outstandingL2 > 0 {
			c.L2Outstanding += k
		}
		if stalled {
			continue // the whole machine stalled; per-stage reasons don't apply
		}
		if r, ok := m.fetchStallReason(th); ok {
			c.Fetch[r] += k
		}
		if r, ok := m.dispatchStallReason(th); ok {
			c.Dispatch[r] += k
		}
	}
}

// fetchStallReason classifies why thread th could not fetch this cycle,
// mirroring canFetch's conditions in priority order. ok is false when
// fetch was not structurally blocked (the thread fetched, or merely lost
// the ICOUNT ranking / ran out of fetch bandwidth this cycle).
func (m *Machine) fetchStallReason(th int) (telemetry.FetchStall, bool) {
	t := &m.threads[th]
	switch {
	case m.fetchDisabled[th]:
		return telemetry.FetchDisabled, true
	case t.exhausted && t.fetchCur >= len(t.pending):
		return telemetry.FetchExhausted, true
	case t.mispredictPending:
		return telemetry.FetchMispredict, true
	case t.fetchStall > m.now:
		if t.fetchStallICache {
			return telemetry.FetchICache, true
		}
		return telemetry.FetchMispredict, true
	case t.fetchCur-t.dispatchCur >= m.cfg.IFQSize:
		return telemetry.FetchIFQFull, true
	case m.res.AtPartitionLimit(th):
		return telemetry.FetchPartition, true
	case m.policy.FetchLocked(m, th):
		return telemetry.FetchPolicy, true
	}
	return 0, false
}

// dispatchStallReason classifies which structure blocks thread th's
// in-order dispatch head, mirroring dispatchOne's allocation checks. ok
// is false when nothing is waiting to dispatch or the head is
// dispatchable (it was bandwidth-limited, not resource-blocked).
func (m *Machine) dispatchStallReason(th int) (telemetry.DispatchStall, bool) {
	t := &m.threads[th]
	if t.dispatchCur >= t.fetchCur {
		return 0, false
	}
	in := &t.pending[t.dispatchCur]
	if !m.res.CanAlloc(th, resource.ROB) {
		return telemetry.DispatchROBFull, true
	}
	if iq := neededIQ(in.Class); iq != resource.NumKinds && !m.res.CanAlloc(th, iq) {
		return telemetry.DispatchIQFull, true
	}
	if in.Class.IsMem() && !m.res.CanAlloc(th, resource.LSQ) {
		return telemetry.DispatchLSQFull, true
	}
	if in.HasDest() {
		k := resource.IntRename
		if in.DestIsFp() {
			k = resource.FpRename
		}
		if !m.res.CanAlloc(th, k) {
			return telemetry.DispatchRenameFull, true
		}
	}
	return 0, false
}
