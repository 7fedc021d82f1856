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
	"sync"

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
// place from a source checkpoint via the pooled CloneInto path and run
// together through CycleAll/CycleAllN; a caller keeps a winning trial by
// copying it out before the next refill.
type MachineBatch struct {
	src     *Machine
	members []*Machine
	// feeds holds one shared fan-out per hardware context seat.
	feeds []*isa.Fanout
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
// copied-out trial winner) is a no-op beyond bookkeeping.
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
		src.CloneInto(b.members[i])
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
		if r, ok := b.src.threads[t].stream.(*isa.FanoutReader); ok {
			f.TrimTo(r.Pos())
		}
	}
}

// CycleAll advances every member one cycle, member-major. It is the
// batch's hot entry point and must not allocate in the steady state
// (enforced by the hotalloc lint root and the alloc regression test).
func (b *MachineBatch) CycleAll() {
	for _, m := range b.members {
		m.Cycle()
	}
}

// CycleAllN advances every member n cycles in lock-step chunks, serially.
func (b *MachineBatch) CycleAllN(n int) { b.CycleFirstN(len(b.members), n, 1) }

// CycleFirstN advances only members [0, k) by n cycles in lock-step
// chunks — the partial-wave companion of RefillN — spreading each
// chunk's members over w goroutines, the caller's included. The
// fan-out windows are pre-filled and frozen for the duration of a
// chunk, so the goroutines share only read-only state; execution is
// bit-identical to the serial order because members never communicate.
// Members attached to a shared L3 (mutable shared state) run serially
// whatever w is; probe members detach it first.
func (b *MachineBatch) CycleFirstN(k, n, w int) {
	k = min(k, len(b.members))
	w = min(w, k)
	if w > 1 && b.sharesL3(k) {
		w = 1
	}
	for done := 0; done < n; {
		c := min(DefaultBatchChunk, n-done)
		if w > 1 {
			b.chunkParallel(k, c, w)
		} else {
			b.cycleSpan(0, k, c)
		}
		done += c
	}
}

// Close does nothing: a batch holds no goroutine between calls. It is
// kept only because the perfbench module still calls it.
func (b *MachineBatch) Close() {}

// sharesL3 reports whether any of members [0, k) is attached to a
// shared L3.
func (b *MachineBatch) sharesL3(k int) bool {
	for _, m := range b.members[:k] {
		if m.mem.L3() != nil {
			return true
		}
	}
	return false
}

// cycleSpan advances members [lo, hi) by c cycles each.
func (b *MachineBatch) cycleSpan(lo, hi, c int) {
	for _, m := range b.members[lo:hi] {
		m.CycleN(c)
	}
}

// chunkParallel runs one chunk of c cycles for members [0, k) in w
// spans: w-1 on fresh goroutines, the first on the caller, joined
// before it returns. The fetch stage pulls at most FetchWidth
// instructions per seat per cycle, so pre-filling each window to
// maxPos + c*FetchWidth guarantees no span ever touches the source. A
// panic in a span is re-raised on the caller once every span is done.
func (b *MachineBatch) chunkParallel(k, c, w int) {
	for t, f := range b.feeds {
		var maxPos uint64
		for _, m := range b.members[:k] {
			if r, ok := m.threads[t].stream.(*isa.FanoutReader); ok && r.Pos() > maxPos {
				maxPos = r.Pos()
			}
		}
		f.Ensure(maxPos + uint64(c*b.src.cfg.FetchWidth))
		f.Freeze(true)
	}
	per := (k + w - 1) / w
	panics := make([]any, w)
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		for _, f := range b.feeds {
			f.Freeze(false)
		}
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}()
	for s, lo := 1, per; lo < k; s, lo = s+1, lo+per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[s] = recover() }()
			b.cycleSpan(lo, min(lo+per, k), c)
		}()
	}
	b.cycleSpan(0, per, c)
}
