package pipeline

import (
	"sort"

	"smthill/internal/isa"
	"smthill/internal/resource"
)

// Cycle advances the machine by one cycle: commit, writeback, issue,
// dispatch, fetch, then the attached policy's per-cycle hook. With a
// telemetry recorder attached, the cycle's stall attribution is recorded
// last, after all stages have settled.
//
// The steady-state loop is allocation-free: every slice it touches
// (ROB, pending buffers, ready queue, completion ring, slab free list)
// reaches a stable capacity and is recycled in place. The smtlint
// hotalloc rule guards that contract statically; the AllocsPerRun test
// in alloc_test.go guards it dynamically.
func (m *Machine) Cycle() { m.cycle() }

// cycle runs one cycle and reports whether it acted: committed, wrote
// back, issued, dispatched, fetched (an instruction-cache miss or the
// end of a stream counts), flushed, or reprogrammed the resource table.
// A cycle that did none of these leaves every input of the next cycle
// unchanged except the clock; the only state it may touch is timed
// bookkeeping that Policy.Horizon and nextEvent account for.
func (m *Machine) cycle() bool {
	stalled := m.now < m.stallUntil
	ver := m.res.Version()
	m.acted = false
	m.commit(stalled)
	m.writeback()
	if !stalled {
		m.issue()
		m.dispatch()
		m.fetch()
		m.policy.Cycle(m)
	}
	if m.rec != nil {
		m.record(stalled, 1)
	}
	m.now++
	m.cycles++
	if m.inv != nil {
		m.checkCycle()
	}
	return m.acted || m.res.Version() != ver
}

// CycleN advances the machine by n cycles. After a cycle in which no
// stage acted, the machine stays quiet until the next event, so CycleN
// jumps the clock to the cycle before it and runs that cycle for real:
// per-cycle bookkeeping such as DCRA's last-miss stamp lands exactly as
// if every cycle had run, and a recorder receives the skipped cycles in
// bulk. The result is identical to n calls of Cycle. With invariant
// checks on, every cycle is stepped.
func (m *Machine) CycleN(n int) {
	end := m.now + uint64(max(n, 0))
	for m.now < end {
		if m.cycle() || m.inv != nil {
			continue
		}
		if next := m.nextEvent(end); next > m.now+1 {
			m.skip(next - 1 - m.now)
		}
	}
}

// nextEvent returns the earliest cycle, from now up to end, at which a
// quiet machine could act again: the next non-empty completion-ring
// slot, a thread's fetch-stall expiry, the end of a global stall, or
// the policy's Horizon.
func (m *Machine) nextEvent(end uint64) uint64 {
	next := min(end, m.policy.Horizon(m))
	if m.stallUntil >= m.now {
		next = min(next, m.stallUntil)
	}
	for i := range m.threads {
		if fs := m.threads[i].fetchStall; fs >= m.now {
			next = min(next, fs)
		}
	}
	ring := uint64(len(m.doneRing))
	for c := m.now; c < next && c < m.now+ring; c++ {
		if len(m.doneRing[c%ring]) > 0 {
			return c
		}
	}
	return next
}

// skip advances the clock over k quiet cycles, recording them in bulk.
func (m *Machine) skip(k uint64) {
	if m.rec != nil {
		m.record(m.now < m.stallUntil, k)
	}
	m.now += k
	m.cycles += k
}

// Done reports whether every stream is exhausted and the pipeline has
// drained. Machines running unbounded synthetic streams never finish.
func (m *Machine) Done() bool {
	for i := range m.threads {
		t := &m.threads[i]
		if !t.exhausted || len(t.rob) > t.robHead || t.fetchCur < len(t.pending) || t.dispatchCur < t.fetchCur {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- commit

func (m *Machine) commit(stalled bool) {
	if stalled {
		return
	}
	budget := m.cfg.CommitWidth
	n := len(m.threads)
	start := int(m.now) % n
	// Round-robin across threads, draining each thread's ready head run.
	progress := true
	for budget > 0 && progress {
		progress = false
		for i := 0; i < n && budget > 0; i++ {
			th := (start + i) % n
			if m.commitOne(th) {
				budget--
				progress = true
			}
		}
	}
	if budget < m.cfg.CommitWidth {
		m.acted = true
	}
}

// commitOne retires thread th's oldest instruction if it has completed.
func (m *Machine) commitOne(th int) bool {
	t := &m.threads[th]
	if t.robHead >= len(t.rob) {
		return false
	}
	r := t.rob[t.robHead]
	e := m.get(r)
	if e == nil {
		panic("pipeline: stale ref at ROB head")
	}
	if !e.done {
		return false
	}
	in := &e.inst
	if m.inv != nil {
		m.checkCommit(th, in.Seq)
	}
	if in.Class == isa.Store {
		m.mem.Store(th, t.addrBase+in.Addr)
	}
	// Release held resources.
	if e.holdsLSQ {
		m.res.Free(th, resource.LSQ)
	}
	if e.holdsIntR {
		m.res.Free(th, resource.IntRename)
	}
	if e.holdsFpR {
		m.res.Free(th, resource.FpRename)
	}
	m.res.Free(th, resource.ROB)
	t.robHead++
	// Compact the ROB's dead prefix in place instead of re-slicing from
	// the front: advancing the slice start would burn backing-array
	// capacity linearly and force a fresh allocation every few hundred
	// commits.
	if t.robHead >= 256 {
		n := copy(t.rob, t.rob[t.robHead:])
		t.rob = t.rob[:n]
		t.robHead = 0
	}
	m.release(r)

	t.bbv[int(in.BB)%BBVEntries]++
	t.stats.Committed++
	t.pendingHead++
	// Compact the pending buffer once the dead prefix grows.
	if t.pendingHead >= 512 {
		copied := copy(t.pending, t.pending[t.pendingHead:])
		t.pending = t.pending[:copied]
		t.dispatchCur -= t.pendingHead
		t.fetchCur -= t.pendingHead
		t.pendingHead = 0
	}
	return true
}

// ------------------------------------------------------------- writeback

func (m *Machine) writeback() {
	slot := int(m.now % uint64(len(m.doneRing)))
	events := m.doneRing[slot]
	if len(events) == 0 {
		return
	}
	m.acted = true
	for _, r := range events {
		e := m.get(r)
		if e == nil || e.done || !e.issued {
			continue // squashed and possibly reallocated; drop the event
		}
		e.done = true
		m.wake(e)
		th := int(e.thread)
		t := &m.threads[th]
		switch e.inst.Class {
		case isa.Branch:
			pc := t.addrBase + e.inst.PC
			m.bp.Update(th, pc, e.inst.Taken)
			if e.inst.Taken {
				m.bp.BTBUpdate(pc, t.addrBase+e.inst.Target)
			}
			if e.mispredicted {
				t.stats.Mispredicts++
				t.fetchStall = m.now + uint64(m.cfg.MispredictPenalty)
				t.fetchStallICache = false
				if t.mispredictPending && t.mispredictSeq == e.inst.Seq {
					t.mispredictPending = false
				}
			}
		case isa.Load:
			if e.dmiss {
				t.outstandingDMiss--
			}
			if e.l2miss {
				t.outstandingL2--
				m.policy.OnL2MissDone(m, th, e.inst.Seq)
			}
		}
	}
	m.doneRing[slot] = events[:0]
}

// schedule enqueues completion of r after lat cycles (lat >= 1).
func (m *Machine) schedule(r ref, lat int) {
	if lat < 1 {
		lat = 1
	}
	if lat >= len(m.doneRing) {
		lat = len(m.doneRing) - 1 // ring bounds the maximum modelled latency
	}
	slot := int((m.now + uint64(lat)) % uint64(len(m.doneRing)))
	//smtlint:ignore hotalloc ring slot reaches its high-water capacity and is recycled with events[:0]
	m.doneRing[slot] = append(m.doneRing[slot], r)
}

// --------------------------------------------------------------- wakeup

// subscribe registers the consumer (r, e) on the wakeup chain of the
// producer guarding operand slot (0 = src1, 1 = src2). It is a no-op
// when the operand is already available (producer completed, committed,
// or squashed). The chain is intrusive: the link for a registration
// lives in the consumer's wakeNext[slot], so no memory is allocated.
func (m *Machine) subscribe(r ref, e *inflight, slot uint8, src ref) {
	p := m.get(src)
	if p == nil || p.done {
		return
	}
	e.wakeNext[slot] = p.wakeHead
	p.wakeHead = wakeRef{idx: r.idx, gen: r.gen, slot: slot}
	e.waitMask |= 1 << slot
}

// unsubscribe removes the consumer (r, e)'s registration for operand
// slot from its producer's wakeup chain. Called on squash, before the
// consumer's slot is released; the producer is necessarily still live
// and incomplete (a completed producer would already have woken and
// deregistered the consumer).
func (m *Machine) unsubscribe(r ref, e *inflight, slot uint8) {
	src := e.src1
	if slot == 1 {
		src = e.src2
	}
	p := m.get(src)
	if p == nil {
		panic("pipeline: registered operand has no live producer")
	}
	tgt := wakeRef{idx: r.idx, gen: r.gen, slot: slot}
	if p.wakeHead == tgt {
		p.wakeHead = e.wakeNext[slot]
	} else {
		l := p.wakeHead
		for {
			if l.gen == 0 {
				panic("pipeline: wakeup registration missing from producer chain")
			}
			n := &m.slab[l.idx].wakeNext[l.slot]
			if *n == tgt {
				*n = e.wakeNext[slot]
				break
			}
			l = *n
		}
	}
	e.wakeNext[slot] = wakeRef{}
	e.waitMask &^= 1 << slot
}

// wake walks the completing instruction's consumer chain, clearing each
// consumer's wait bit; a consumer whose last pending operand this was
// enters the ready queue. Chains contain only live registrations —
// squash deregisters explicitly — so a generation mismatch is a
// bookkeeping bug, not a benign stale ref.
func (m *Machine) wake(e *inflight) {
	l := e.wakeHead
	e.wakeHead = wakeRef{}
	for l.gen != 0 {
		c := &m.slab[l.idx]
		if c.gen != l.gen {
			panic("pipeline: stale wakeup link")
		}
		next := c.wakeNext[l.slot]
		c.wakeNext[l.slot] = wakeRef{}
		c.waitMask &^= 1 << l.slot
		if c.waitMask == 0 {
			m.pushReady(ref{idx: l.idx, gen: l.gen}, c.stamp)
		}
		l = next
	}
}

// pushReady inserts a woken instruction into the ready queue, keeping
// the queue sorted by dispatch stamp so issue scans strictly oldest
// first — the same age priority the former full-window scan had.
func (m *Machine) pushReady(r ref, stamp uint64) {
	q := m.readyQ
	i := sort.Search(len(q), func(j int) bool { return q[j].stamp > stamp })
	//smtlint:ignore hotalloc queue capacity is bounded by window occupancy and recycled via readyQ[:0]
	q = append(q, readyEnt{})
	copy(q[i+1:], q[i:])
	q[i] = readyEnt{r: r, stamp: stamp}
	m.readyQ = q
}

// ----------------------------------------------------------------- issue

// issue scans only the ready queue — instructions whose operands have
// all been produced — in dispatch-age order. Entries it cannot issue
// (functional unit contention, issue-width exhaustion) stay queued;
// squashed entries are dropped. Waiting instructions whose operands are
// still in flight never reach this loop: they sit on their producers'
// wakeup chains, so the per-cycle cost is O(ready), not O(window).
func (m *Machine) issue() {
	budget := m.cfg.IssueWidth
	fu := m.cfg.FUs // per-cycle copy; decremented as units are claimed
	out := m.readyQ[:0]
	for i, ent := range m.readyQ {
		e := m.get(ent.r)
		if e == nil || e.issued {
			continue // squashed (and possibly reallocated); drop the entry
		}
		if budget == 0 {
			//smtlint:ignore hotalloc out reuses readyQ's backing array and never outgrows it
			out = append(out, m.readyQ[i:]...)
			break
		}
		if m.tryIssue(ent.r, e, &fu) {
			budget--
			continue
		}
		//smtlint:ignore hotalloc out reuses readyQ's backing array and never outgrows it
		out = append(out, ent)
	}
	m.readyQ = out
	if budget < m.cfg.IssueWidth {
		m.acted = true
	}
}

// tryIssue issues one ready instruction if a functional unit of its
// class is free. It returns true when the instruction left the window.
// Operand readiness is a precondition: only woken instructions are in
// the ready queue.
func (m *Machine) tryIssue(r ref, e *inflight, fu *FUConfig) bool {
	th := int(e.thread)
	t := &m.threads[th]
	in := &e.inst
	lat := in.Class.ExecLatency()
	switch in.Class {
	case isa.IntAlu, isa.Branch:
		if fu.IntAlu == 0 {
			return false
		}
		fu.IntAlu--
	case isa.IntMul, isa.IntDiv:
		if fu.IntMul == 0 {
			return false
		}
		fu.IntMul--
	case isa.FpAlu:
		if fu.FpAlu == 0 {
			return false
		}
		fu.FpAlu--
	case isa.FpMul, isa.FpDiv:
		if fu.FpMul == 0 {
			return false
		}
		fu.FpMul--
	case isa.Load:
		if fu.MemPorts == 0 {
			return false
		}
		fu.MemPorts--
		memLat, l2miss := m.mem.Load(th, t.addrBase+in.Addr)
		lat += memLat
		if memLat > m.cfg.Mem.DL1.Latency {
			e.dmiss = true
			t.outstandingDMiss++
		}
		if l2miss {
			e.l2miss = true
			t.outstandingL2++
			m.policy.OnL2Miss(m, th, in.Seq)
		}
	case isa.Store:
		if fu.MemPorts == 0 {
			return false
		}
		fu.MemPorts--
	}
	e.issued = true
	if e.holdsIQ == resource.IntIQ || e.holdsIQ == resource.FpIQ {
		m.res.Free(th, e.holdsIQ)
		e.holdsIQ = resource.NumKinds
	}
	m.schedule(r, lat)
	t.stats.Issued++
	return true
}

// -------------------------------------------------------------- dispatch

// neededIQ returns the issue-queue structure an instruction occupies
// between dispatch and issue, or NumKinds for memory operations (which
// wait in the LSQ instead).
func neededIQ(c isa.Class) resource.Kind {
	switch c {
	case isa.IntAlu, isa.IntMul, isa.IntDiv, isa.Branch:
		return resource.IntIQ
	case isa.FpAlu, isa.FpMul, isa.FpDiv:
		return resource.FpIQ
	default:
		return resource.NumKinds
	}
}

func (m *Machine) dispatch() {
	budget := m.cfg.FetchWidth // dispatch width equals fetch width
	n := len(m.threads)
	start := int(m.now) % n
	progress := true
	for budget > 0 && progress {
		progress = false
		for i := 0; i < n && budget > 0; i++ {
			th := (start + i) % n
			if m.dispatchOne(th) {
				budget--
				progress = true
			}
		}
	}
	if budget < m.cfg.FetchWidth {
		m.acted = true
	}
}

// dispatchOne moves thread th's next fetched instruction into the window
// if every structure it needs can be allocated. Threads dispatch in
// order, so a blocked head blocks only its own thread.
func (m *Machine) dispatchOne(th int) bool {
	t := &m.threads[th]
	if t.dispatchCur >= t.fetchCur {
		return false
	}
	in := &t.pending[t.dispatchCur]
	iq := neededIQ(in.Class)

	if !m.res.CanAlloc(th, resource.ROB) {
		return false
	}
	if iq != resource.NumKinds && !m.res.CanAlloc(th, iq) {
		return false
	}
	if in.Class.IsMem() && !m.res.CanAlloc(th, resource.LSQ) {
		return false
	}
	needIntR := in.HasDest() && !in.DestIsFp()
	needFpR := in.HasDest() && in.DestIsFp()
	if needIntR && !m.res.CanAlloc(th, resource.IntRename) {
		return false
	}
	if needFpR && !m.res.CanAlloc(th, resource.FpRename) {
		return false
	}

	r, e := m.alloc()
	*e = inflight{
		gen:     e.gen,
		inst:    *in,
		thread:  int8(th),
		src1:    noRef,
		src2:    noRef,
		holdsIQ: resource.NumKinds,
		stamp:   m.dispStamp,
	}
	m.dispStamp++

	m.res.Alloc(th, resource.ROB)
	if iq != resource.NumKinds {
		m.res.Alloc(th, iq)
		e.holdsIQ = iq
	}
	if in.Class.IsMem() {
		m.res.Alloc(th, resource.LSQ)
		e.holdsLSQ = true
	}
	if needIntR {
		m.res.Alloc(th, resource.IntRename)
		e.holdsIntR = true
	}
	if needFpR {
		m.res.Alloc(th, resource.FpRename)
		e.holdsFpR = true
	}

	// Resolve source operands against the rename map and register on the
	// producers' wakeup chains. FP arithmetic reads the FP file; loads
	// and stores address (and, for stores, source their data) through
	// the integer file.
	srcFp := in.Class.IsFp()
	if in.Src1 != isa.NoReg {
		e.src1 = t.rename[renameIdx(in.Src1, srcFp)]
		m.subscribe(r, e, 0, e.src1)
	}
	if in.Src2 != isa.NoReg {
		e.src2 = t.rename[renameIdx(in.Src2, srcFp)]
		m.subscribe(r, e, 1, e.src2)
	}
	// Claim the destination.
	if in.HasDest() {
		di := renameIdx(in.Dest, in.DestIsFp())
		e.prevDest = t.rename[di]
		t.rename[di] = r
	}
	if t.mispredictPending && in.Class == isa.Branch && in.Seq == t.mispredictSeq {
		e.mispredicted = true
	}

	//smtlint:ignore hotalloc ROB capacity is bounded by the partition limits and recycled by the robHead compaction
	t.rob = append(t.rob, r)
	if e.waitMask == 0 {
		// All operands available at dispatch. The stamp just assigned is
		// the global maximum, so appending preserves the ready queue's
		// age order.
		//smtlint:ignore hotalloc queue capacity is bounded by window occupancy and recycled via readyQ[:0]
		m.readyQ = append(m.readyQ, readyEnt{r: r, stamp: e.stamp})
	}
	t.dispatchCur++
	t.stats.Dispatched++
	return true
}

// renameIdx maps an architectural register to its rename-table slot.
func renameIdx(reg int8, fp bool) int {
	if fp {
		return int(reg) + isa.RegsPerFile
	}
	return int(reg)
}

// ----------------------------------------------------------------- fetch

// canFetch reports whether thread th may fetch this cycle.
func (m *Machine) canFetch(th int) bool {
	t := &m.threads[th]
	if m.fetchDisabled[th] || (t.exhausted && t.fetchCur >= len(t.pending)) {
		return false
	}
	if t.mispredictPending || t.fetchStall > m.now {
		return false
	}
	if t.fetchCur-t.dispatchCur >= m.cfg.IFQSize {
		return false
	}
	if m.res.AtPartitionLimit(th) {
		return false
	}
	return !m.policy.FetchLocked(m, th)
}

// maxContexts bounds the hardware contexts a single machine may have;
// it exists only to keep fetch's thread-ranking scratch off the heap.
const maxContexts = 16

func (m *Machine) fetch() {
	// Rank eligible threads by ICOUNT (fewest in-flight instructions
	// first) and fetch from the best FetchThreads of them.
	var order [maxContexts]int
	var counts [maxContexts]int
	n := 0
	for th := range m.threads {
		if !m.canFetch(th) {
			continue
		}
		c := m.ICount(th)
		i := n
		for i > 0 && counts[i-1] > c {
			order[i] = order[i-1]
			counts[i] = counts[i-1]
			i--
		}
		order[i] = th
		counts[i] = c
		n++
	}
	if n == 0 {
		return
	}
	// An eligible thread always changes state: it fetches, misses in
	// the instruction cache, or finds its stream exhausted.
	m.acted = true
	if n > m.cfg.FetchThreads {
		n = m.cfg.FetchThreads
	}
	budget := m.cfg.FetchWidth
	for i := 0; i < n && budget > 0; i++ {
		budget = m.fetchThread(order[i], budget)
	}
}

// fetchThread fetches up to budget instructions from thread th and
// returns the remaining budget.
func (m *Machine) fetchThread(th int, budget int) int {
	t := &m.threads[th]
	for budget > 0 {
		if !m.canFetch(th) {
			break
		}
		// Refill the pending buffer from the stream if needed. The stream
		// decodes straight into the appended slot: a local scratch Inst
		// would escape through the interface call and put one heap
		// allocation on every fetch.
		if t.fetchCur >= len(t.pending) {
			//smtlint:ignore hotalloc pending capacity is bounded by the in-flight window plus the compaction threshold
			t.pending = append(t.pending, isa.Inst{})
			if !t.stream.Next(&t.pending[len(t.pending)-1]) {
				t.exhausted = true
				t.pending = t.pending[:len(t.pending)-1]
				break
			}
		}
		in := &t.pending[t.fetchCur]
		pc := t.addrBase + in.PC

		// Charge instruction-cache misses on block transitions.
		block := pc >> 6
		if block != t.lastFetchBlock {
			if lat := m.mem.Fetch(th, pc); lat > m.cfg.Mem.IL1.Latency {
				t.fetchStall = m.now + uint64(lat)
				t.fetchStallICache = true
				break
			}
			t.lastFetchBlock = block
		}

		t.fetchCur++
		t.stats.Fetched++
		budget--

		if in.Class == isa.Branch {
			predTaken := m.bp.Predict(th, pc)
			_, btbHit := m.bp.BTBLookup(pc)
			mispredict := predTaken != in.Taken || (in.Taken && !btbHit)
			if mispredict {
				t.mispredictPending = true
				t.mispredictSeq = in.Seq
				break // fetch cannot proceed past an unresolved mispredict
			}
			if in.Taken {
				break // taken-branch fetch break within the cycle
			}
		}
	}
	return budget
}

// ----------------------------------------------------------------- flush

// FlushAfter squashes every in-flight instruction of thread th younger
// than sequence number seq and rewinds the thread's fetch point so the
// squashed instructions are re-fetched later. This is the recovery action
// of the FLUSH policy (Tullsen & Brown) and the paper's Section 2.
func (m *Machine) FlushAfter(th int, seq uint64) {
	m.acted = true
	t := &m.threads[th]
	// Walk the ROB tail (youngest first), squashing while Seq > seq.
	squashed := 0
	for len(t.rob) > t.robHead {
		r := t.rob[len(t.rob)-1]
		e := m.get(r)
		if e == nil {
			panic("pipeline: stale ref in ROB tail")
		}
		if e.inst.Seq <= seq {
			break
		}
		m.squash(th, r, e)
		t.rob = t.rob[:len(t.rob)-1]
		squashed++
	}
	if squashed > 0 {
		t.stats.Flushed += uint64(squashed)
	}
	t.stats.Flushes++

	// Rewind the fetch/dispatch cursors to just past seq. pending is in
	// sequence order, so locate the first instruction with Seq > seq.
	lo := t.pendingHead
	cur := t.fetchCur
	for cur > lo && t.pending[cur-1].Seq > seq {
		cur--
	}
	t.fetchCur = cur
	if t.dispatchCur > cur {
		t.dispatchCur = cur
	}
	// Any fetched-but-unresolved mispredict past the flush point is gone.
	if t.mispredictPending && t.mispredictSeq > seq {
		t.mispredictPending = false
	}
	t.lastFetchBlock = 0 // refetch the flushed block
}

// squash undoes one in-flight instruction: restores the rename map,
// deregisters pending wakeups, releases occupancy, and frees the slab
// slot (which invalidates any ready-queue or completion-ring references).
func (m *Machine) squash(th int, r ref, e *inflight) {
	t := &m.threads[th]
	in := &e.inst
	if in.HasDest() {
		di := renameIdx(in.Dest, in.DestIsFp())
		if cur := t.rename[di]; cur == r {
			t.rename[di] = e.prevDest
		}
	}
	// A flush squashes the ROB tail youngest-first and dependences only
	// point backwards within a thread, so every consumer of e was
	// squashed (and deregistered) before e itself; its chain must be
	// empty by now.
	if e.wakeHead.gen != 0 {
		panic("pipeline: squashing a producer with live consumers")
	}
	if e.waitMask&1 != 0 {
		m.unsubscribe(r, e, 0)
	}
	if e.waitMask&2 != 0 {
		m.unsubscribe(r, e, 1)
	}
	if e.holdsIQ == resource.IntIQ || e.holdsIQ == resource.FpIQ {
		m.res.Free(th, e.holdsIQ)
	}
	if e.holdsLSQ {
		m.res.Free(th, resource.LSQ)
	}
	if e.holdsIntR {
		m.res.Free(th, resource.IntRename)
	}
	if e.holdsFpR {
		m.res.Free(th, resource.FpRename)
	}
	m.res.Free(th, resource.ROB)
	if e.dmiss && !e.done {
		t.outstandingDMiss--
	}
	if e.l2miss && !e.done {
		t.outstandingL2--
	}
	m.release(r)
}
