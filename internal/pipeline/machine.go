// Package pipeline implements the cycle-level out-of-order SMT processor
// model that the paper's resource distribution techniques run on.
//
// The model is trace-driven: each hardware context is bound to an
// isa.Stream supplying its committed-path instructions. Every cycle the
// machine commits, writes back, issues, dispatches, and fetches, subject
// to the Table 1 bandwidths, functional units, and shared-structure
// capacities tracked by internal/resource. Fetch bandwidth is distributed
// with the ICOUNT policy; explicit resource partitions (set through
// Resources().SetShares) fetch-lock a thread that has reached its limit in
// any partitioned structure, exactly as described in Section 3.2 of the
// paper.
//
// Memory-bound threads leave the machine quiet for long stretches: every
// thread waits on an L2 miss or a fetch redirect and no stage can act.
// CycleN jumps the clock over such stretches to the cycle before the
// next completion, fetch-stall expiry, global-stall end or policy timer
// (Policy.Horizon), recording the skipped cycles in bulk, so the result
// is identical to stepping every cycle. With invariant checks on it
// steps every cycle, which makes -check the per-cycle reference.
//
// The entire machine state is deep-copyable via CloneInto, which is the
// checkpoint primitive used by the paper's OFF-LINE exhaustive learning
// and RAND-HILL algorithms: a clone replays the identical future
// execution. To keep cloning structural, in-flight instructions live in a
// flat slab and refer to each other through index+generation references.
package pipeline

import (
	"fmt"
	"slices"

	"smthill/internal/bpred"
	"smthill/internal/cache"
	"smthill/internal/isa"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
)

// ref identifies an in-flight instruction slot; gen detects slot reuse, so
// a stale ref (its producer has committed or been squashed) simply reads
// as "ready".
type ref struct {
	idx int32
	gen uint32
}

// noRef is the canonical "no producer / ready" reference (gen 0 is never a
// live generation).
var noRef = ref{-1, 0}

// wakeRef is one link in a producer's intrusive wakeup chain: it names a
// consumer slot plus which of the consumer's two source operands the
// producer feeds, so the chain can continue through the consumer's
// wakeNext[slot]. The zero value (gen 0) terminates a chain.
type wakeRef struct {
	idx  int32
	gen  uint32
	slot uint8
}

// readyEnt is one ready-queue entry: an instruction whose operands are
// all available, keyed by its dispatch stamp for age ordering.
type readyEnt struct {
	r     ref
	stamp uint64
}

// inflight is one instruction between dispatch and commit.
type inflight struct {
	gen    uint32
	inst   isa.Inst
	thread int8

	issued bool
	done   bool

	// src1, src2 point at the producing in-flight instructions (noRef or
	// stale = operand ready).
	src1, src2 ref
	// prevDest is the rename-table entry displaced by this instruction's
	// destination, restored on squash.
	prevDest ref

	// stamp is the instruction's global dispatch order, the age key of
	// the ready queue.
	stamp uint64
	// wakeHead is the head of this instruction's consumer chain: in-flight
	// instructions to wake when it completes. wakeNext holds this
	// instruction's own links within its producers' chains, one per
	// source operand; waitMask has bit s set while operand s's
	// registration is outstanding (waitMask == 0 means all operands
	// available).
	wakeHead wakeRef
	wakeNext [2]wakeRef
	waitMask uint8

	// dmiss marks a load that missed in the DL1; l2miss marks a load
	// that also missed in the L2 (memory-bound).
	dmiss  bool
	l2miss bool
	// mispredicted marks a branch whose fetch-time prediction was wrong.
	mispredicted bool

	// Occupancy held, freed at commit or squash.
	holdsIQ   resource.Kind // IntIQ or FpIQ; freed at issue
	holdsLSQ  bool
	holdsIntR bool
	holdsFpR  bool
}

// thread is the per-context front-end and ROB state.
type threadState struct {
	stream isa.Stream

	// pending buffers instructions pulled from the stream but not yet
	// committed, enabling replay after a policy flush. Indices into it:
	// pendingHead marks the oldest uncommitted instruction, dispatchCur
	// the next to dispatch, fetchCur the next to fetch; instructions in
	// [dispatchCur, fetchCur) occupy the thread's fetch queue.
	pending     []isa.Inst
	pendingHead int
	dispatchCur int
	fetchCur    int

	// mispredictSeq is the sequence number of the fetched-but-unresolved
	// mispredicted branch when mispredictPending is set.
	mispredictSeq uint64

	// rob holds refs in dispatch order awaiting commit; entries before
	// robHead are retired and reclaimed by periodic in-place compaction
	// (re-slicing from the front would leak backing-array capacity and
	// re-allocate in steady state).
	rob     []ref
	robHead int

	// Rename map: architectural register -> producing in-flight
	// instruction. Index 0..31 integer, 32..63 floating point.
	rename [2 * isa.RegsPerFile]ref

	// fetchStall is the cycle until which fetch is stalled (mispredict
	// redirect or instruction-cache miss).
	fetchStall uint64
	// mispredictPending stops fetch after a mispredicted branch until it
	// resolves.
	mispredictPending bool
	// fetchStallICache records whether fetchStall was last armed by an
	// instruction-cache miss (vs a mispredict redirect), so telemetry can
	// attribute the stalled cycles to the right cause.
	fetchStallICache bool
	// lastFetchBlock is the instruction-cache block of the last fetched
	// instruction, for charging I-cache misses on block transitions.
	lastFetchBlock uint64
	// exhausted marks a finite stream that has ended.
	exhausted bool

	// addrBase offsets this thread's data addresses into a disjoint
	// region of the shared cache hierarchy's address space.
	addrBase uint64

	// outstandingL2 counts this thread's in-flight L2-missing loads;
	// outstandingDMiss counts in-flight loads that missed the DL1
	// (DCRA's fast/slow classification signal).
	outstandingL2    int
	outstandingDMiss int

	// bbv accumulates the thread's Basic Block Vector: committed
	// instructions per (hashed) basic block. Phase detection (Section 5)
	// snapshots and resets it each epoch.
	bbv [BBVEntries]uint32

	// stats holds the thread's pipeline counters.
	stats ThreadStats
}

// liveROB returns the thread's in-flight ROB entries, oldest first.
func (t *threadState) liveROB() []ref { return t.rob[t.robHead:] }

// ThreadStats aggregates one thread's pipeline counters (monotonic).
// Machine-wide totals are derived with Total.
type ThreadStats struct {
	// Fetched, Dispatched, Issued, and Committed count instructions
	// passing each stage.
	Fetched    uint64
	Dispatched uint64
	Issued     uint64
	Committed  uint64
	// Flushes counts policy-initiated flush events against the thread;
	// Flushed counts the instructions those flushes squashed.
	Flushes uint64
	Flushed uint64
	// Mispredicts counts resolved branch mispredictions.
	Mispredicts uint64
}

// Stats aggregates machine-level counters (monotonic).
type Stats struct {
	Cycles      uint64
	Fetched     uint64
	Dispatched  uint64
	Issued      uint64
	Committed   uint64
	Flushes     uint64
	Squashed    uint64
	Mispredicts uint64
}

// Total sums per-thread counters into the machine-level aggregate.
// Cycles is a machine property, not a thread one; Machine.Stats fills it.
func Total(per []ThreadStats) Stats {
	var s Stats
	for i := range per {
		t := &per[i]
		s.Fetched += t.Fetched
		s.Dispatched += t.Dispatched
		s.Issued += t.Issued
		s.Committed += t.Committed
		s.Flushes += t.Flushes
		s.Squashed += t.Flushed
		s.Mispredicts += t.Mispredicts
	}
	return s
}

// Machine is the simulated SMT processor.
type Machine struct {
	cfg Config

	now     uint64
	threads []threadState
	res     *resource.Table
	mem     *cache.Hierarchy
	bp      *bpred.Predictor

	// fetchDisabled masks contexts whose fetch is administratively off
	// (SingleIPC sampling disables all other threads for an epoch).
	fetchDisabled []bool

	// slab of in-flight instructions plus its free list.
	slab []inflight
	free []int32

	// readyQ holds dispatched, unissued instructions whose operands are
	// all available, sorted by dispatch stamp; the issue stage scans it
	// oldest-first. Instructions still waiting on operands are not queued
	// anywhere — they sit on their producers' wakeup chains until the
	// writeback stage wakes them.
	readyQ []readyEnt
	// dispStamp is the next global dispatch stamp.
	dispStamp uint64

	// done[c % len(done)] lists instructions completing at cycle c.
	doneRing [][]ref

	policy Policy

	// cycles counts simulated cycles (per-thread counters live in each
	// threadState; Stats aggregates both).
	cycles uint64

	// rec, when non-nil, receives per-cycle stall-attribution and
	// occupancy telemetry (see record in telemetry.go). The hot loop pays
	// one predictable nil-check branch per cycle when tracing is off.
	rec *telemetry.Recorder

	// stallUntil globally stalls the whole machine (used to charge the
	// software cost of the hill-climbing algorithm, Section 4.2).
	stallUntil uint64

	// inv, when non-nil, enables the per-cycle invariant checks of
	// SetInvariantChecks (see check.go). Like rec, the off state costs one
	// nil-test per cycle.
	inv *invariantState

	// acted is set by every stage that changes machine state during the
	// current cycle (see cycle); CycleN skips ahead only after a cycle
	// that left it clear.
	acted bool
}

// Policy is a per-cycle resource distribution mechanism (FLUSH, STALL,
// DCRA, ...). The epoch-level learning algorithms in internal/core are
// layered above policies and are not Policies themselves.
//
// Implementations must be deep-copyable so the machine can be
// checkpointed.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Cycle runs once per simulated cycle, after all pipeline stages.
	Cycle(m *Machine)
	// FetchLocked reports whether the policy forbids fetch for thread th
	// this cycle (in addition to the machine's structural conditions).
	FetchLocked(m *Machine, th int) bool
	// OnL2Miss fires when thread th's load with sequence number seq is
	// found to miss in the L2 (at issue time).
	OnL2Miss(m *Machine, th int, seq uint64)
	// OnL2MissDone fires when that load completes.
	OnL2MissDone(m *Machine, th int, seq uint64)
	// Horizon returns the earliest cycle, at or after m.Now(), at which
	// the policy could act or change its FetchLocked answers with no
	// pipeline event (commit, writeback, issue, dispatch, fetch, flush)
	// prompting it: a timer firing, a classification expiring. Never
	// means only events move it. CycleN skips quiet cycles up to this
	// bound; a policy unsure of its answer returns m.Now(), and any
	// value not after m.Now() disables skipping.
	Horizon(m *Machine) uint64
	// Clone returns an independent deep copy.
	Clone() Policy
}

// Never is the Horizon of a policy that has no timed behaviour.
const Never = ^uint64(0)

// NilPolicy is the no-op policy: plain ICOUNT fetch with fully shared
// resources.
type NilPolicy struct{}

// Name implements Policy.
func (NilPolicy) Name() string { return "ICOUNT" }

// Cycle implements Policy.
func (NilPolicy) Cycle(*Machine) {}

// FetchLocked implements Policy.
func (NilPolicy) FetchLocked(*Machine, int) bool { return false }

// OnL2Miss implements Policy.
func (NilPolicy) OnL2Miss(*Machine, int, uint64) {}

// OnL2MissDone implements Policy.
func (NilPolicy) OnL2MissDone(*Machine, int, uint64) {}

// Horizon implements Policy.
func (NilPolicy) Horizon(*Machine) uint64 { return Never }

// Clone implements Policy.
func (NilPolicy) Clone() Policy { return NilPolicy{} }

// New builds a machine running one stream per hardware context under the
// given policy (nil means NilPolicy/plain ICOUNT).
func New(cfg Config, streams []isa.Stream, pol Policy) *Machine {
	if len(streams) != cfg.Threads {
		panic(fmt.Sprintf("pipeline: %d streams for %d contexts", len(streams), cfg.Threads))
	}
	if cfg.Threads < 1 || cfg.Threads > maxContexts {
		panic(fmt.Sprintf("pipeline: %d contexts outside [1, %d]", cfg.Threads, maxContexts))
	}
	if pol == nil {
		pol = NilPolicy{}
	}
	slabSize := cfg.Resources[resource.ROB] + cfg.Threads*cfg.IFQSize + 16
	m := &Machine{
		cfg:           cfg,
		res:           resource.NewTable(cfg.Threads, cfg.Resources),
		mem:           cache.NewHierarchy(cfg.Mem, cfg.Threads),
		bp:            bpred.New(cfg.Bpred),
		slab:          make([]inflight, slabSize),
		free:          make([]int32, 0, slabSize),
		doneRing:      newRing(512),
		policy:        pol,
		threads:       make([]threadState, cfg.Threads),
		fetchDisabled: make([]bool, cfg.Threads),
	}
	for i := slabSize - 1; i >= 0; i-- {
		m.slab[i].gen = 1
		m.free = append(m.free, int32(i))
	}
	for t := range m.threads {
		m.threads[t].resetSeat(streams[t])
		m.threads[t].addrBase = GlobalAddrBase(t)
	}
	return m
}

// ringSlotCap is each completion-ring slot's pre-provisioned capacity,
// carved from one shared arena. A slot holds the instructions completing
// at one cycle; the observed high-water mark is about half this, so
// steady state never grows a slot (append past the arena cap would
// detach the slot onto its own backing — correct, just allocating).
const ringSlotCap = 32

// newRing builds an n-slot completion ring whose slot backings all live
// in a single arena allocation, each with length 0 and fixed capacity
// ringSlotCap (three-index slicing keeps an overflowing append from
// bleeding into the next slot). n must be a power of two: the stages
// index the ring by masking the cycle.
func newRing(n int) [][]ref {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("pipeline: completion ring of %d slots is not a power of two", n))
	}
	arena := make([]ref, n*ringSlotCap)
	ring := make([][]ref, n)
	for i := range ring {
		ring[i] = arena[i*ringSlotCap : i*ringSlotCap : (i+1)*ringSlotCap]
	}
	return ring
}

// Clone returns a deep copy of the machine: an execution checkpoint.
// See CloneInto.
func (m *Machine) Clone() *Machine {
	return m.CloneInto(nil)
}

// CloneInto overwrites dst with a deep copy of the machine and returns
// dst; a nil dst allocates a new machine. Advancing the copy and the
// original produces identical, independent executions. Every slice and
// table dst already holds is reused whatever its shape, so a checkpoint
// loop that recycles trial machines performs no steady-state allocation;
// `dst = src.CloneInto(dst)` is the idiomatic loop body.
//
// The telemetry recorder is deliberately NOT carried over: a recorder
// observes one machine, and the checkpoint-based learners run many
// speculative copies whose counters would pollute the real run's
// attribution. Attach a fresh recorder to a copy if it should be traced.
func (m *Machine) CloneInto(dst *Machine) *Machine {
	if dst == nil {
		dst = new(Machine)
	}
	old := *dst
	*dst = *m
	dst.rec = nil
	dst.res = m.res.CloneInto(old.res)
	dst.mem = m.mem.CloneInto(old.mem)
	dst.bp = m.bp.CloneInto(old.bp)
	dst.slab = append(old.slab[:0], m.slab...)
	// Give the free list its full steady-state capacity up front so the
	// copy's release path never re-allocates it.
	dst.free = append(slices.Grow(old.free[:0], len(m.slab)), m.free...)
	dst.readyQ = append(old.readyQ[:0], m.readyQ...)
	dst.fetchDisabled = append(old.fetchDisabled[:0], m.fetchDisabled...)
	dst.doneRing = old.doneRing
	if len(dst.doneRing) != len(m.doneRing) {
		dst.doneRing = newRing(len(m.doneRing))
	}
	for i, evs := range m.doneRing {
		dst.doneRing[i] = append(dst.doneRing[i][:0], evs...)
	}
	dst.policy = m.policy.Clone()
	if m.inv != nil {
		dst.inv = m.inv.clone()
	}
	dst.threads = slices.Grow(old.threads[:0], len(m.threads))[:len(m.threads)]
	for i := range m.threads {
		s, d := &m.threads[i], &dst.threads[i]
		pending, rob, stream := d.pending, d.rob, d.stream
		*d = *s
		d.pending = append(pending[:0], s.pending...)
		d.rob = append(rob[:0], s.rob...)
		d.stream = s.stream.CloneStream(stream)
	}
	return dst
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current cycle.
func (m *Machine) Now() uint64 { return m.now }

// Threads returns the number of hardware contexts.
func (m *Machine) Threads() int { return len(m.threads) }

// Resources exposes the occupancy/partition table. Learning algorithms
// program partitions through Resources().SetShares.
func (m *Machine) Resources() *resource.Table { return m.res }

// Mem exposes the cache hierarchy (for policy classification and stats).
func (m *Machine) Mem() *cache.Hierarchy { return m.mem }

// Bpred exposes the branch predictor.
func (m *Machine) Bpred() *bpred.Predictor { return m.bp }

// Stats returns the machine-level counters, aggregated over threads.
func (m *Machine) Stats() Stats {
	s := Total(m.PerThreadStats())
	s.Cycles = m.cycles
	return s
}

// ThreadStats returns thread th's pipeline counters.
func (m *Machine) ThreadStats(th int) ThreadStats { return m.threads[th].stats }

// PerThreadStats returns a copy of every thread's counters, in context
// order. Total aggregates them back into machine-level Stats.
func (m *Machine) PerThreadStats() []ThreadStats {
	out := make([]ThreadStats, len(m.threads))
	for i := range m.threads {
		out[i] = m.threads[i].stats
	}
	return out
}

// SetRecorder attaches (or with nil detaches) a telemetry recorder that
// accumulates per-cycle stall-attribution counters and occupancy
// histograms. The recorder's thread count must match the machine's.
func (m *Machine) SetRecorder(r *telemetry.Recorder) {
	if r != nil && len(r.Threads) != len(m.threads) {
		panic(fmt.Sprintf("pipeline: recorder has %d threads, machine has %d",
			len(r.Threads), len(m.threads)))
	}
	m.rec = r
}

// Recorder returns the attached telemetry recorder (nil when tracing is
// off).
func (m *Machine) Recorder() *telemetry.Recorder { return m.rec }

// Committed returns the instructions committed so far by thread th.
func (m *Machine) Committed(th int) uint64 { return m.threads[th].stats.Committed }

// Flushed returns the instructions squashed so far by flushes of thread th.
func (m *Machine) Flushed(th int) uint64 { return m.threads[th].stats.Flushed }

// OutstandingL2 returns thread th's in-flight L2-missing load count.
func (m *Machine) OutstandingL2(th int) int { return m.threads[th].outstandingL2 }

// OutstandingDMiss returns thread th's in-flight DL1-missing load count —
// the signal DCRA uses to classify threads as memory-bound ("slow").
func (m *Machine) OutstandingDMiss(th int) int { return m.threads[th].outstandingDMiss }

// BBVEntries is the Basic Block Vector length per context (Section 5
// uses 64 entries per SMT context).
const BBVEntries = 64

// BBV returns a copy of thread th's accumulated Basic Block Vector.
func (m *Machine) BBV(th int) [BBVEntries]uint32 { return m.threads[th].bbv }

// ResetBBV zeroes thread th's Basic Block Vector (called at epoch
// boundaries by phase detection).
func (m *Machine) ResetBBV(th int) { m.threads[th].bbv = [BBVEntries]uint32{} }

// MispredictRate returns the branch predictor's lifetime mispredict rate.
func (m *Machine) MispredictRate() float64 { return m.bp.MispredictRate() }

// ICount returns thread th's ICOUNT metric: instructions in the front end
// (fetched, not yet dispatched) plus issue-queue occupancy.
func (m *Machine) ICount(th int) int {
	t := &m.threads[th]
	frontEnd := t.fetchCur - t.dispatchCur
	return frontEnd + m.res.Occ(th, resource.IntIQ) + m.res.Occ(th, resource.FpIQ) + m.res.Occ(th, resource.LSQ)
}

// Policy returns the attached per-cycle policy.
func (m *Machine) Policy() Policy { return m.policy }

// SetPolicy replaces the per-cycle policy (nil restores plain ICOUNT).
// The experiment harness uses it to run different techniques forward from
// the same checkpoint ("synchronized" comparisons, Section 3.3).
func (m *Machine) SetPolicy(p Policy) {
	if p == nil {
		p = NilPolicy{}
	}
	m.policy = p
}

// Stall suspends all pipeline activity for n cycles starting now. The
// paper charges the software implementation of the hill-climbing
// algorithm 200 stall cycles per epoch (Section 4.2).
func (m *Machine) Stall(n int) {
	until := m.now + uint64(n)
	if until > m.stallUntil {
		m.stallUntil = until
	}
}

// SetFetchEnabled disables or re-enables fetch for a context. The
// learning algorithms use this to sample a thread's stand-alone IPC
// (SingleIPC) by disabling the other threads for one epoch (Section 4.2).
// Instructions already in flight for a disabled thread drain normally.
func (m *Machine) SetFetchEnabled(th int, enabled bool) {
	m.fetchDisabled[th] = !enabled
}

// FetchEnabled reports whether fetch is administratively enabled for th.
func (m *Machine) FetchEnabled(th int) bool { return !m.fetchDisabled[th] }

// get returns the slab entry for r, or nil if the ref is stale.
func (m *Machine) get(r ref) *inflight {
	if r.idx < 0 {
		return nil
	}
	e := &m.slab[r.idx]
	if e.gen != r.gen {
		return nil
	}
	return e
}

// alloc takes a slot from the slab. The slab is sized so that allocation
// can only fail if bookkeeping leaked slots, which is a bug.
func (m *Machine) alloc() (ref, *inflight) {
	n := len(m.free)
	if n == 0 {
		panic("pipeline: in-flight slab exhausted (slot leak)")
	}
	idx := m.free[n-1]
	m.free = m.free[:n-1]
	e := &m.slab[idx]
	return ref{idx: idx, gen: e.gen}, e
}

// release returns a slot to the slab, bumping its generation so stale
// refs read as ready.
func (m *Machine) release(r ref) {
	e := &m.slab[r.idx]
	e.gen++
	//smtlint:ignore hotalloc free list capacity is fixed at the slab size; this append never grows it
	m.free = append(m.free, r.idx)
}

// ready reports whether the operand guarded by r is available.
func (m *Machine) ready(r ref) bool {
	e := m.get(r)
	return e == nil || e.done
}
