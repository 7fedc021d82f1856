// Package resource tracks the shared SMT pipeline structures that
// learning-based distribution partitions across hardware threads: the
// per-thread occupancy counters, the partition (limit) registers, and the
// arithmetic on partition shares used by the learning algorithms.
//
// Following Section 3.1.2 of the paper, the explicitly partitioned
// resources are the integer issue queue, the integer rename registers, and
// the reorder buffer. A partition is expressed as a division of the
// integer rename registers (the paper's canonical axis); the integer IQ
// and ROB limits are derived proportionally. The floating-point IQ and
// rename registers are tracked for capacity but never partitioned.
package resource

import "fmt"

// Kind identifies one shared hardware structure.
type Kind int

const (
	// IntIQ is the integer issue queue (partitioned, proportionally).
	IntIQ Kind = iota
	// FpIQ is the floating-point issue queue (capacity only).
	FpIQ
	// LSQ is the load/store queue (capacity only).
	LSQ
	// IntRename is the integer rename register file (the partition axis).
	IntRename
	// FpRename is the floating-point rename register file (capacity only).
	FpRename
	// ROB is the shared reorder buffer (partitioned, proportionally).
	ROB
	// NumKinds is the number of tracked structures.
	NumKinds
)

// String returns the structure's name.
func (k Kind) String() string {
	switch k {
	case IntIQ:
		return "int-iq"
	case FpIQ:
		return "fp-iq"
	case LSQ:
		return "lsq"
	case IntRename:
		return "int-rename"
	case FpRename:
		return "fp-rename"
	case ROB:
		return "rob"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Partitioned reports whether the structure is explicitly partitioned by
// the learning-based distribution mechanisms.
func (k Kind) Partitioned() bool { return k == IntIQ || k == IntRename || k == ROB }

// Sizes holds the total entry count of each structure.
type Sizes [NumKinds]int

// DefaultSizes returns the Table 1 configuration: 80-entry integer and FP
// issue queues, 256-entry LSQ, 256 integer and 256 FP rename registers,
// and a 512-entry shared ROB.
func DefaultSizes() Sizes {
	var s Sizes
	s[IntIQ] = 80
	s[FpIQ] = 80
	s[LSQ] = 256
	s[IntRename] = 256
	s[FpRename] = 256
	s[ROB] = 512
	return s
}

// MinShare is the smallest rename-register share any thread may hold, so
// every thread is guaranteed forward progress (Section 3.1: "partitioning
// guarantees every thread receives some fraction of each shared resource").
const MinShare = 8

// Shares is a division of the integer rename registers across threads;
// len(Shares) is the thread count and the elements sum to the rename file
// size.
type Shares []int

// EqualShares returns the equal division of total across t threads (the
// initial anchor of the hill-climbing algorithm).
func EqualShares(t, total int) Shares {
	s := make(Shares, t)
	base := total / t
	rem := total - base*t
	for i := range s {
		s[i] = base
		if i < rem {
			s[i]++
		}
	}
	return s
}

// Clone returns a copy of s.
func (s Shares) Clone() Shares { return append(Shares(nil), s...) }

// Sum returns the total of all shares.
func (s Shares) Sum() int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}

// Valid reports whether every share is at least MinShare and the total
// equals total.
func (s Shares) Valid(total int) bool {
	for _, v := range s {
		if v < MinShare {
			return false
		}
	}
	return s.Sum() == total
}

// Shift returns a copy of s with delta registers moved to thread favored
// from every other thread (the sampling move of the paper's Figure 8,
// lines 17–21). Shares are clamped at MinShare; registers that cannot be
// taken from a clamped thread are taken from the largest remaining donors
// so the total is preserved.
func (s Shares) Shift(favored, delta int) Shares {
	n := s.Clone()
	if len(n) < 2 || delta <= 0 {
		return n
	}
	moved := 0
	for i := range n {
		if i == favored {
			continue
		}
		take := delta
		if n[i]-take < MinShare {
			take = n[i] - MinShare
			if take < 0 {
				take = 0
			}
		}
		n[i] -= take
		moved += take
	}
	n[favored] += moved
	return n
}

// shareMode records how the partition registers were last programmed, so
// CheckConservation can re-derive and cross-check them.
type shareMode uint8

const (
	// modeNone: no share vector is in force (ClearPartitions or direct
	// SetLimit programming).
	modeNone shareMode = iota
	// modeProportional: SetShares derived the IQ and ROB limits from the
	// rename shares.
	modeProportional
	// modeRenameOnly: SetSharesRenameOnly left IQ and ROB fully shared.
	modeRenameOnly
)

// Table tracks per-thread occupancy and partition limits for every shared
// structure. It is a plain value type aside from its slices; CloneInto
// produces an independent deep copy for checkpointing.
type Table struct {
	sizes   Sizes
	threads int
	occ     []int // threads*NumKinds occupancy counters
	limit   []int // threads*NumKinds partition limits
	total   Sizes // aggregate occupancy per structure

	// shares remembers the last share vector programmed through SetShares
	// or SetSharesRenameOnly (nil under modeNone); mode records which
	// derivation produced the current limits; version counts every
	// reprogramming, letting per-cycle checks tell "occupancy exceeds a
	// just-shrunk limit" (legal, drains) from "occupancy grew past its
	// limit" (a conservation bug).
	shares  Shares
	mode    shareMode
	version uint64
}

// NewTable returns a table for the given thread count with partitioning
// disabled (every thread limited only by total capacity).
func NewTable(threads int, sizes Sizes) *Table {
	t := &Table{
		sizes:   sizes,
		threads: threads,
		occ:     make([]int, threads*int(NumKinds)),
		limit:   make([]int, threads*int(NumKinds)),
	}
	t.ClearPartitions()
	return t
}

// CloneInto overwrites dst with a deep copy of t, reusing dst's backing
// storage, and returns dst. A nil dst allocates a new copy.
func (t *Table) CloneInto(dst *Table) *Table {
	if dst == nil {
		dst = new(Table)
	}
	occ, limit, shares := dst.occ, dst.limit, dst.shares
	*dst = *t
	dst.occ = append(occ[:0], t.occ...)
	dst.limit = append(limit[:0], t.limit...)
	if t.shares != nil {
		dst.shares = append(shares[:0], t.shares...)
	}
	return dst
}

// Threads returns the number of hardware contexts tracked.
func (t *Table) Threads() int { return t.threads }

// Sizes returns the structure capacities.
func (t *Table) Sizes() Sizes { return t.sizes }

func (t *Table) idx(th int, k Kind) int { return th*int(NumKinds) + int(k) }

// Occ returns thread th's occupancy of structure k.
func (t *Table) Occ(th int, k Kind) int { return t.occ[t.idx(th, k)] }

// TotalOcc returns the aggregate occupancy of structure k.
func (t *Table) TotalOcc(k Kind) int { return t.total[k] }

// Limit returns thread th's current limit for structure k.
func (t *Table) Limit(th int, k Kind) int { return t.limit[t.idx(th, k)] }

// ClearPartitions removes all partition limits: every thread may consume
// up to the full structure (the ICOUNT/FLUSH sharing model).
func (t *Table) ClearPartitions() {
	for th := 0; th < t.threads; th++ {
		for k := Kind(0); k < NumKinds; k++ {
			t.limit[t.idx(th, k)] = t.sizes[k]
		}
	}
	t.shares, t.mode = nil, modeNone
	t.version++
}

// SetShares programs the partition registers from a division of the
// integer rename registers, deriving the integer IQ and ROB limits
// proportionally (Section 3.1.2). Non-partitioned structures keep
// full-capacity limits. SetShares panics if len(shares) != Threads().
func (t *Table) SetShares(shares Shares) {
	if len(shares) != t.threads {
		panic(fmt.Sprintf("resource: %d shares for %d threads", len(shares), t.threads))
	}
	renameTotal := t.sizes[IntRename]
	for th, share := range shares {
		t.limit[t.idx(th, IntRename)] = share
		t.limit[t.idx(th, IntIQ)] = proportional(share, renameTotal, t.sizes[IntIQ])
		t.limit[t.idx(th, ROB)] = proportional(share, renameTotal, t.sizes[ROB])
	}
	t.shares, t.mode = shares.Clone(), modeProportional
	t.version++
}

// SetSharesRenameOnly programs the partition registers for the integer
// rename registers only, leaving the integer IQ and ROB fully shared. It
// is the ablation counterpart of SetShares for evaluating the paper's
// proportional-partitioning simplification (Section 3.1.2).
func (t *Table) SetSharesRenameOnly(shares Shares) {
	if len(shares) != t.threads {
		panic(fmt.Sprintf("resource: %d shares for %d threads", len(shares), t.threads))
	}
	for th, share := range shares {
		t.limit[t.idx(th, IntRename)] = share
		t.limit[t.idx(th, IntIQ)] = t.sizes[IntIQ]
		t.limit[t.idx(th, ROB)] = t.sizes[ROB]
	}
	t.shares, t.mode = shares.Clone(), modeRenameOnly
	t.version++
}

// SetLimit programs one thread's limit for one structure directly. It is
// used by the independent-partitioning ablation and by DCRA, which derives
// its own per-structure caps.
func (t *Table) SetLimit(th int, k Kind, limit int) {
	if limit > t.sizes[k] {
		limit = t.sizes[k]
	}
	if limit < 1 {
		limit = 1
	}
	t.limit[t.idx(th, k)] = limit
	t.shares, t.mode = nil, modeNone
	t.version++
}

// proportional scales share/total onto a structure with size entries,
// rounding to nearest and keeping at least one entry.
func proportional(share, total, size int) int {
	v := (share*size + total/2) / total
	if v < 1 {
		v = 1
	}
	if v > size {
		v = size
	}
	return v
}

// CanAlloc reports whether thread th may allocate one entry of structure k
// right now: the structure has a free entry and the thread is under its
// partition limit.
func (t *Table) CanAlloc(th int, k Kind) bool {
	return t.total[k] < t.sizes[k] && t.occ[t.idx(th, k)] < t.limit[t.idx(th, k)]
}

// Alloc claims one entry of structure k for thread th. It panics if the
// allocation is not permitted; callers must check CanAlloc first.
func (t *Table) Alloc(th int, k Kind) {
	if !t.CanAlloc(th, k) {
		panic(fmt.Sprintf("resource: invalid alloc of %v by thread %d (occ %d/%d, total %d/%d)",
			k, th, t.occ[t.idx(th, k)], t.limit[t.idx(th, k)], t.total[k], t.sizes[k]))
	}
	t.occ[t.idx(th, k)]++
	t.total[k]++
}

// Free releases one entry of structure k held by thread th.
func (t *Table) Free(th int, k Kind) {
	i := t.idx(th, k)
	if t.occ[i] == 0 {
		panic(fmt.Sprintf("resource: free of %v by thread %d with zero occupancy", k, th))
	}
	t.occ[i]--
	t.total[k]--
}

// AtPartitionLimit reports whether thread th has reached its limit in any
// partitioned structure — the fetch-lock condition of Section 3.2.
func (t *Table) AtPartitionLimit(th int) bool {
	return t.occ[t.idx(th, IntIQ)] >= t.limit[t.idx(th, IntIQ)] ||
		t.occ[t.idx(th, IntRename)] >= t.limit[t.idx(th, IntRename)] ||
		t.occ[t.idx(th, ROB)] >= t.limit[t.idx(th, ROB)]
}

// Version returns a counter that increments on every partition
// reprogramming (SetShares, SetSharesRenameOnly, SetLimit,
// ClearPartitions). Per-cycle invariant checks use it to distinguish
// occupancy legitimately draining down to a just-shrunk limit from
// occupancy growing past its limit.
func (t *Table) Version() uint64 { return t.version }

// ProgrammedShares returns a copy of the share vector currently in force
// and true, or nil and false when the table is not under share-based
// partitioning (ClearPartitions or direct SetLimit programming).
func (t *Table) ProgrammedShares() (Shares, bool) {
	if t.mode == modeNone {
		return nil, false
	}
	return t.shares.Clone(), true
}

// CheckConservation verifies the table's bookkeeping against the
// capacities and the programmed share vector: occupancies are
// non-negative, the per-structure totals equal the per-thread sums and
// fit the capacity, limits lie in [1, size], and — when a share vector is
// in force — the shares respect MinShare, sum exactly to the rename file
// size, and the limit registers match the recorded derivation
// (proportional or rename-only). It returns the first violation found.
func (t *Table) CheckConservation() error {
	for k := Kind(0); k < NumKinds; k++ {
		sum := 0
		for th := 0; th < t.threads; th++ {
			occ, lim := t.occ[t.idx(th, k)], t.limit[t.idx(th, k)]
			if occ < 0 {
				return fmt.Errorf("resource: thread %d %v occupancy %d is negative", th, k, occ)
			}
			if lim < 1 || lim > t.sizes[k] {
				return fmt.Errorf("resource: thread %d %v limit %d outside [1, %d]", th, k, lim, t.sizes[k])
			}
			sum += occ
		}
		if sum != t.total[k] {
			return fmt.Errorf("resource: %v total occupancy %d, per-thread sum %d", k, t.total[k], sum)
		}
		if t.total[k] > t.sizes[k] {
			return fmt.Errorf("resource: %v total occupancy %d exceeds capacity %d", k, t.total[k], t.sizes[k])
		}
	}
	if t.mode == modeNone {
		return nil
	}
	if len(t.shares) != t.threads {
		return fmt.Errorf("resource: %d programmed shares for %d threads", len(t.shares), t.threads)
	}
	renameTotal := t.sizes[IntRename]
	if got := t.shares.Sum(); got != renameTotal {
		return fmt.Errorf("resource: programmed shares sum to %d, rename file holds %d", got, renameTotal)
	}
	for th, share := range t.shares {
		if share < MinShare {
			return fmt.Errorf("resource: thread %d share %d below MinShare %d", th, share, MinShare)
		}
		if lim := t.limit[t.idx(th, IntRename)]; lim != share {
			return fmt.Errorf("resource: thread %d rename limit %d does not match share %d", th, lim, share)
		}
		wantIQ, wantROB := t.sizes[IntIQ], t.sizes[ROB]
		if t.mode == modeProportional {
			wantIQ = proportional(share, renameTotal, t.sizes[IntIQ])
			wantROB = proportional(share, renameTotal, t.sizes[ROB])
		}
		if lim := t.limit[t.idx(th, IntIQ)]; lim != wantIQ {
			return fmt.Errorf("resource: thread %d int-iq limit %d, share derivation says %d", th, lim, wantIQ)
		}
		if lim := t.limit[t.idx(th, ROB)]; lim != wantROB {
			return fmt.Errorf("resource: thread %d rob limit %d, share derivation says %d", th, lim, wantROB)
		}
	}
	return nil
}
