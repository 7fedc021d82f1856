package telemetry

import "math/bits"

// FetchStall classifies why a thread could not fetch on a given cycle.
// Reasons are checked in declaration order by the pipeline, so each
// stalled cycle is attributed to exactly one (the highest-priority)
// cause.
type FetchStall int

const (
	// FetchDisabled: fetch administratively off (SingleIPC sampling
	// disables all other threads).
	FetchDisabled FetchStall = iota
	// FetchExhausted: the thread's instruction stream has ended.
	FetchExhausted
	// FetchMispredict: stopped behind an unresolved mispredicted branch,
	// or redirecting after one resolved.
	FetchMispredict
	// FetchICache: waiting out an instruction-cache miss.
	FetchICache
	// FetchIFQFull: the thread's fetch queue is full (back-pressure from
	// dispatch).
	FetchIFQFull
	// FetchPartition: the thread is fetch-locked at its partition limit
	// in some partitioned structure (Section 3.2's mechanism).
	FetchPartition
	// FetchPolicy: the per-cycle policy (FLUSH/STALL/DCRA) locked fetch.
	FetchPolicy
	// NumFetchStalls is the number of fetch stall reasons.
	NumFetchStalls
)

// String returns the counter name used in Totals maps and event streams.
func (r FetchStall) String() string {
	switch r {
	case FetchDisabled:
		return "fetch.disabled"
	case FetchExhausted:
		return "fetch.exhausted"
	case FetchMispredict:
		return "fetch.mispredict"
	case FetchICache:
		return "fetch.icache"
	case FetchIFQFull:
		return "fetch.ifq_full"
	case FetchPartition:
		return "fetch.partition"
	case FetchPolicy:
		return "fetch.policy"
	default:
		return "fetch.unknown"
	}
}

// DispatchStall classifies which shared structure blocked a thread's
// in-order dispatch head on a given cycle.
type DispatchStall int

const (
	// DispatchROBFull: no reorder-buffer entry available to the thread.
	DispatchROBFull DispatchStall = iota
	// DispatchIQFull: the needed issue queue (int or fp) is full.
	DispatchIQFull
	// DispatchLSQFull: the load/store queue is full.
	DispatchLSQFull
	// DispatchRenameFull: no rename register (int or fp) available.
	DispatchRenameFull
	// NumDispatchStalls is the number of dispatch stall reasons.
	NumDispatchStalls
)

// String returns the counter name used in Totals maps and event streams.
func (r DispatchStall) String() string {
	switch r {
	case DispatchROBFull:
		return "dispatch.rob_full"
	case DispatchIQFull:
		return "dispatch.iq_full"
	case DispatchLSQFull:
		return "dispatch.lsq_full"
	case DispatchRenameFull:
		return "dispatch.rename_full"
	default:
		return "dispatch.unknown"
	}
}

// HistBuckets is the bucket count of an occupancy histogram. Buckets are
// power-of-two sized: bucket 0 holds value 0, bucket i>0 holds values in
// [2^(i-1), 2^i). 16 buckets cover occupancies up to 32K entries,
// comfortably above any Table 1 structure.
const HistBuckets = 16

// Hist is a power-of-two-bucketed histogram of non-negative occupancy
// samples, with an exact sum for mean computation. The fixed-size value
// layout keeps Observe allocation-free and the Recorder deep-copyable by
// assignment.
type Hist struct {
	Buckets [HistBuckets]uint64
	Count   uint64
	Sum     uint64
}

// Observe records one sample.
func (h *Hist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	i := bits.Len(uint(v)) // 0 -> 0, else 1+floor(log2 v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += uint64(v)
}

// Mean returns the exact mean of all samples (0 with no samples).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// BucketLo returns the smallest value bucket i holds.
func BucketLo(i int) int {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// ThreadCounters is one thread's stall-attribution and occupancy state.
type ThreadCounters struct {
	// Fetch[r] counts cycles fetch was stalled for reason r.
	Fetch [NumFetchStalls]uint64
	// Dispatch[r] counts cycles the dispatch head was blocked by
	// structure r.
	Dispatch [NumDispatchStalls]uint64
	// IQOcc and ROBOcc sample the thread's issue-queue (int+fp) and ROB
	// occupancy every recorded cycle.
	IQOcc  Hist
	ROBOcc Hist
	// L2Outstanding counts cycles with at least one of the thread's
	// L2-missing loads in flight (memory-bound exposure).
	L2Outstanding uint64
}

// Recorder accumulates per-thread, per-stage pipeline counters. Attach
// one to a pipeline.Machine with SetRecorder; a nil recorder costs the
// hot loop a single predictable branch per cycle. Recorder is not
// goroutine-safe: one recorder observes one machine.
type Recorder struct {
	// Cycles counts recorded cycles.
	Cycles uint64
	// Stalled counts cycles the whole machine was stalled (the charged
	// software overhead of the learning algorithm, Section 4.2).
	Stalled uint64
	// Threads holds the per-thread counters.
	Threads []ThreadCounters
}

// NewRecorder returns a recorder for a machine with threads contexts.
func NewRecorder(threads int) *Recorder {
	return &Recorder{Threads: make([]ThreadCounters, threads)}
}

// Totals flattens the recorder into a name->count map, summing counters
// over threads. Occupancy histograms contribute their sample sums under
// "occ.iq" and "occ.rob" (divide by "cycles" for a mean), and the map
// always carries "cycles" and, when non-zero, "machine.stalled".
func (r *Recorder) Totals() map[string]uint64 {
	out := map[string]uint64{"cycles": r.Cycles}
	if r.Stalled > 0 {
		out["machine.stalled"] = r.Stalled
	}
	for i := range r.Threads {
		t := &r.Threads[i]
		for fr := FetchStall(0); fr < NumFetchStalls; fr++ {
			if v := t.Fetch[fr]; v > 0 {
				out[fr.String()] += v
			}
		}
		for dr := DispatchStall(0); dr < NumDispatchStalls; dr++ {
			if v := t.Dispatch[dr]; v > 0 {
				out[dr.String()] += v
			}
		}
		if t.L2Outstanding > 0 {
			out["l2.outstanding"] += t.L2Outstanding
		}
		out["occ.iq"] += t.IQOcc.Sum
		out["occ.rob"] += t.ROBOcc.Sum
	}
	return out
}
