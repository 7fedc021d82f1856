// Batched lock-step simulation. The learning loops of internal/core are
// dominated by evaluating *sibling* configurations of the same workload
// prefix: the checkpoint-based searchers re-simulate an identical
// committed-path instruction sequence under K slightly different
// resource partitions. Run independently, those K machines each pay the
// full trace-generation and decode cost for byte-identical instruction
// content. A MachineBatch advances the K siblings in lock-step chunks
// over one shared decoded stream (isa.Fanout), so production happens
// once per fetched instruction instead of K times.
//
// Divergence contract: members may diverge in fetch *timing* (a member
// with a tighter partition stalls on different cycles) but never in
// fetch *content* — every member consumes the identical decoded prefix,
// by construction of the fan-out, and a member that somehow fell behind
// a trimmed window fails loudly. The per-cycle FNV golden tests pin a
// batch member's execution to a standalone machine's, cycle for cycle.
package pipeline

import (
	"fmt"

	"smthill/internal/isa"
)

// DefaultBatchChunk is the lock-step granularity of CycleAllN: each
// member advances this many cycles before the next member runs. Small
// enough that the shared fan-out window stays hot in cache between the
// leader producing it and the laggards re-reading it; large enough that
// a member's ~0.5MB private state is not reloaded per handful of cycles.
const DefaultBatchChunk = 512

// MachineBatch is K clones of a source machine advancing in lock-step
// over a shared decoded instruction stream. Members are refilled in
// place from a source checkpoint via the pooled CloneInto path, run
// together through CycleAll/CycleAllN, and individually detached (Swap)
// when a trial wins adoption.
type MachineBatch struct {
	src     *Machine
	members []*Machine
	// feeds holds one shared fan-out per hardware context seat.
	feeds []*isa.Fanout
	chunk int

	// workers > 1 runs each lock-step chunk's members on persistent
	// worker goroutines (multi-core hosts); 1 runs them serially.
	workers int
	work    chan batchSpan
	ack     chan struct{}
}

// batchSpan is one worker's assignment for one lock-step chunk.
type batchSpan struct {
	lo, hi, cycles int
}

// BatchFrom builds a K-member batch over src. It takes over src's
// instruction streams, re-binding each to a shared fan-out reader (the
// sequence src observes is unchanged); src itself is NOT a member and is
// never advanced by the batch — it is the refill checkpoint. Members
// are created immediately as clones of src.
func BatchFrom(src *Machine, k int) *MachineBatch {
	if k < 1 {
		panic(fmt.Sprintf("pipeline: BatchFrom with %d members", k))
	}
	b := &MachineBatch{
		src:     src,
		members: make([]*Machine, k),
		chunk:   DefaultBatchChunk,
		workers: 1,
	}
	b.adoptSource(src)
	for i := range b.members {
		b.members[i] = src.Clone()
	}
	return b
}

// adoptSource re-derives the per-seat fan-outs from src's streams,
// wrapping any stream that is not already a fan-out reader. Adopting a
// machine whose readers already sit on this batch's fan-outs (the usual
// trial-winner promotion) is a no-op beyond bookkeeping.
func (b *MachineBatch) adoptSource(src *Machine) {
	b.src = src
	if cap(b.feeds) < len(src.threads) {
		b.feeds = make([]*isa.Fanout, len(src.threads))
	}
	b.feeds = b.feeds[:len(src.threads)]
	for t := range src.threads {
		s := src.threads[t].stream
		if r, ok := s.(*isa.FanoutReader); ok {
			b.feeds[t] = r.Fanout()
			continue
		}
		f := isa.NewFanout(s)
		src.threads[t].stream = f.Origin()
		b.feeds[t] = f
	}
}

// K returns the member count.
func (b *MachineBatch) K() int { return len(b.members) }

// Member returns member i. Callers may configure it (shares, recorder,
// policy) between Refill and CycleAllN, and read its statistics after.
func (b *MachineBatch) Member(i int) *Machine { return b.members[i] }

// Src returns the current refill checkpoint.
func (b *MachineBatch) Src() *Machine { return b.src }

// SetChunk overrides the lock-step granularity (DefaultBatchChunk).
func (b *MachineBatch) SetChunk(n int) {
	if n < 1 {
		n = 1
	}
	b.chunk = n
}

// Refill overwrites every member with a fresh checkpoint of src via the
// pooled CloneInto path and trims the shared windows to the checkpoint
// position. Passing nil refills from the current source.
func (b *MachineBatch) Refill(src *Machine) { b.RefillN(src, len(b.members)) }

// RefillN refills only the first n members — a partial wave when fewer
// candidates remain than the batch holds. The remaining members keep
// their stale state and must not be advanced.
func (b *MachineBatch) RefillN(src *Machine, n int) {
	if src == nil {
		src = b.src
	}
	if src != b.src || b.feedsStale(src) {
		b.adoptSource(src)
	}
	for i := 0; i < n; i++ {
		if b.members[i] == nil {
			b.members[i] = src.Clone()
		} else {
			src.CloneInto(b.members[i])
		}
	}
	b.trimToSource()
}

// feedsStale reports whether any of src's streams is no longer a reader
// of the recorded per-seat fan-out. Context migration (multicore thread
// swaps) replaces a seat's stream wholesale; refilling re-adopts so the
// batch follows the seat's current stream instead of trimming a fan-out
// the source no longer reads.
func (b *MachineBatch) feedsStale(src *Machine) bool {
	if len(b.feeds) != len(src.threads) {
		return true
	}
	for t := range src.threads {
		r, ok := src.threads[t].stream.(*isa.FanoutReader)
		if !ok || r.Fanout() != b.feeds[t] {
			return true
		}
	}
	return false
}

// trimToSource discards fan-out window prefixes below the checkpoint's
// read positions. Every live reader outside the batch was cloned from
// the source at or after this position, so nothing can read below it.
func (b *MachineBatch) trimToSource() {
	for t, f := range b.feeds {
		if f == nil {
			continue
		}
		if r, ok := b.src.threads[t].stream.(*isa.FanoutReader); ok {
			f.TrimTo(r.Pos())
		}
	}
}

// Swap replaces member i with repl (which must be shaped like the other
// members, or nil to leave the slot empty until the next Refill clones
// it afresh) and returns the outgoing member. This is how a winning
// trial is promoted to the live machine: the caller takes the winner out
// and hands the dethroned live machine back as the replacement.
func (b *MachineBatch) Swap(i int, repl *Machine) *Machine {
	out := b.members[i]
	b.members[i] = repl
	return out
}

// CycleAll advances every member one cycle, member-major. It is the
// batch's hot entry point and must not allocate in the steady state
// (enforced by the hotalloc lint root and the alloc regression test).
func (b *MachineBatch) CycleAll() {
	for _, m := range b.members {
		m.Cycle()
	}
}

// CycleAllN advances every member n cycles in lock-step chunks.
func (b *MachineBatch) CycleAllN(n int) { b.CycleFirstN(len(b.members), n) }

// CycleFirstN advances only members [0, k) by n cycles in lock-step
// chunks — the partial-wave companion of RefillN.
func (b *MachineBatch) CycleFirstN(k, n int) {
	if k > len(b.members) {
		k = len(b.members)
	}
	for done := 0; done < n; {
		c := b.chunk
		if c > n-done {
			c = n - done
		}
		if b.workers > 1 && k > 1 {
			b.chunkParallel(k, c)
		} else {
			for i := 0; i < k; i++ {
				b.members[i].CycleN(c)
			}
		}
		done += c
	}
}

// SetParallel runs each lock-step chunk's members on w persistent worker
// goroutines. The fan-out windows are pre-filled and frozen for the
// duration of a chunk, so workers share only read-only state; execution
// is bit-identical to the serial order because members never communicate.
// w <= 1 restores serial mode. Call Close when done with a parallel
// batch to stop the workers. Machines attached to a shared L3 refuse
// parallel mode: the L3 is mutable shared state.
func (b *MachineBatch) SetParallel(w int) {
	if w > len(b.members) {
		w = len(b.members)
	}
	if w <= 1 {
		b.Close()
		b.workers = 1
		return
	}
	for _, m := range b.members {
		if m != nil && m.mem.L3() != nil {
			panic("pipeline: parallel MachineBatch over a shared L3")
		}
	}
	b.Close()
	b.workers = w
	b.work = make(chan batchSpan)
	b.ack = make(chan struct{})
	for i := 0; i < w; i++ {
		go b.worker()
	}
}

// Close stops the persistent workers of a parallel batch (no-op in
// serial mode). The batch remains usable serially afterwards.
func (b *MachineBatch) Close() {
	if b.work != nil {
		close(b.work)
		b.work, b.ack = nil, nil
	}
	b.workers = 1
}

func (b *MachineBatch) worker() {
	for s := range b.work {
		for i := s.lo; i < s.hi; i++ {
			b.members[i].CycleN(s.cycles)
		}
		b.ack <- struct{}{}
	}
}

// chunkParallel runs one chunk of c cycles for members [0, k) across the
// persistent workers. The fetch stage pulls at most FetchWidth
// instructions per seat per cycle, so pre-filling each window to
// maxPos + c*FetchWidth guarantees no worker ever touches the source.
func (b *MachineBatch) chunkParallel(k, c int) {
	for t, f := range b.feeds {
		if f == nil {
			continue
		}
		var maxPos uint64
		for i := 0; i < k; i++ {
			if r, ok := b.members[i].threads[t].stream.(*isa.FanoutReader); ok && r.Pos() > maxPos {
				maxPos = r.Pos()
			}
		}
		f.Ensure(maxPos + uint64(c*b.src.cfg.FetchWidth))
		f.Freeze(true)
	}
	per := (k + b.workers - 1) / b.workers
	spans := 0
	for lo := 0; lo < k; lo += per {
		hi := lo + per
		if hi > k {
			hi = k
		}
		b.work <- batchSpan{lo: lo, hi: hi, cycles: c}
		spans++
	}
	for ; spans > 0; spans-- {
		<-b.ack
	}
	for _, f := range b.feeds {
		if f != nil {
			f.Freeze(false)
		}
	}
}
