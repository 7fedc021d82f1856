package resource

import (
	"testing"
	"testing/quick"

	"smthill/internal/rng"
)

func TestDefaultSizesMatchTable1(t *testing.T) {
	s := DefaultSizes()
	want := map[Kind]int{IntIQ: 80, FpIQ: 80, LSQ: 256, IntRename: 256, FpRename: 256, ROB: 512}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%v size = %d, want %d", k, s[k], v)
		}
	}
}

func TestPartitionedKinds(t *testing.T) {
	want := map[Kind]bool{IntIQ: true, IntRename: true, ROB: true}
	for k := Kind(0); k < NumKinds; k++ {
		if k.Partitioned() != want[k] {
			t.Errorf("%v.Partitioned() = %v", k, k.Partitioned())
		}
	}
}

func TestEqualShares(t *testing.T) {
	for _, tc := range []struct {
		threads, total int
	}{{2, 256}, {3, 256}, {4, 256}, {7, 100}} {
		s := EqualShares(tc.threads, tc.total)
		if s.Sum() != tc.total {
			t.Errorf("EqualShares(%d,%d) sums to %d", tc.threads, tc.total, s.Sum())
		}
		for _, v := range s {
			if v < tc.total/tc.threads || v > tc.total/tc.threads+1 {
				t.Errorf("EqualShares(%d,%d) uneven: %v", tc.threads, tc.total, s)
			}
		}
	}
}

func TestShiftPreservesSum(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(3)
		s := EqualShares(n, 256)
		for step := 0; step < 50; step++ {
			s = s.Shift(r.Intn(n), 4)
			if s.Sum() != 256 {
				return false
			}
			for _, v := range s {
				if v < MinShare {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftMovesTowardFavored(t *testing.T) {
	s := EqualShares(4, 256)
	n := s.Shift(2, 4)
	if n[2] != s[2]+12 {
		t.Fatalf("favored share %d, want %d", n[2], s[2]+12)
	}
	for i := range n {
		if i != 2 && n[i] != s[i]-4 {
			t.Fatalf("donor %d share %d, want %d", i, n[i], s[i]-4)
		}
	}
}

func TestShiftClampsAtMinShare(t *testing.T) {
	s := Shares{MinShare, 256 - MinShare}
	n := s.Shift(1, 4)
	if n[0] != MinShare {
		t.Fatalf("clamped donor went to %d", n[0])
	}
	if n.Sum() != 256 {
		t.Fatalf("sum = %d", n.Sum())
	}
	// Nothing could be taken, so the favored share is unchanged.
	if n[1] != 256-MinShare {
		t.Fatalf("favored share changed to %d with no donor capacity", n[1])
	}
}

func TestValid(t *testing.T) {
	if !EqualShares(2, 256).Valid(256) {
		t.Fatal("equal shares reported invalid")
	}
	if (Shares{0, 256}).Valid(256) {
		t.Fatal("sub-MinShare shares reported valid")
	}
	if (Shares{128, 100}).Valid(256) {
		t.Fatal("wrong-sum shares reported valid")
	}
}

func TestAllocFreeOccupancy(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	tab.Alloc(0, ROB)
	tab.Alloc(0, ROB)
	tab.Alloc(1, ROB)
	if tab.Occ(0, ROB) != 2 || tab.Occ(1, ROB) != 1 || tab.TotalOcc(ROB) != 3 {
		t.Fatalf("occupancy wrong: %d %d %d", tab.Occ(0, ROB), tab.Occ(1, ROB), tab.TotalOcc(ROB))
	}
	tab.Free(0, ROB)
	if tab.Occ(0, ROB) != 1 || tab.TotalOcc(ROB) != 2 {
		t.Fatal("free did not decrement")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	sizes := DefaultSizes()
	tab := NewTable(2, sizes)
	for i := 0; i < sizes[IntIQ]; i++ {
		if !tab.CanAlloc(0, IntIQ) {
			t.Fatalf("alloc %d refused below capacity", i)
		}
		tab.Alloc(0, IntIQ)
	}
	if tab.CanAlloc(0, IntIQ) || tab.CanAlloc(1, IntIQ) {
		t.Fatal("allocation allowed beyond total capacity")
	}
}

func TestSetSharesProportionality(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	tab.SetShares(Shares{64, 192})
	if got := tab.Limit(0, IntRename); got != 64 {
		t.Fatalf("rename limit = %d", got)
	}
	// 64/256 of the 80-entry IQ = 20; of the 512-entry ROB = 128.
	if got := tab.Limit(0, IntIQ); got != 20 {
		t.Fatalf("IQ limit = %d, want 20", got)
	}
	if got := tab.Limit(0, ROB); got != 128 {
		t.Fatalf("ROB limit = %d, want 128", got)
	}
	if got := tab.Limit(1, ROB); got != 384 {
		t.Fatalf("thread 1 ROB limit = %d, want 384", got)
	}
	// Non-partitioned structures stay at capacity.
	if got := tab.Limit(0, LSQ); got != 256 {
		t.Fatalf("LSQ limit = %d", got)
	}
	if got := tab.Limit(0, FpRename); got != 256 {
		t.Fatalf("FP rename limit = %d", got)
	}
}

func TestPartitionBlocksAllocation(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	tab.SetShares(Shares{16, 240})
	for i := 0; i < 16; i++ {
		tab.Alloc(0, IntRename)
	}
	if tab.CanAlloc(0, IntRename) {
		t.Fatal("thread 0 allocated past its partition")
	}
	if !tab.CanAlloc(1, IntRename) {
		t.Fatal("thread 1 blocked by thread 0's partition")
	}
	if !tab.AtPartitionLimit(0) {
		t.Fatal("thread 0 not reported at partition limit")
	}
	if tab.AtPartitionLimit(1) {
		t.Fatal("thread 1 wrongly at partition limit")
	}
}

func TestClearPartitions(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	tab.SetShares(Shares{16, 240})
	tab.ClearPartitions()
	if tab.Limit(0, IntRename) != 256 || tab.Limit(0, ROB) != 512 {
		t.Fatal("ClearPartitions did not restore capacity limits")
	}
}

func TestAllocPanicsWhenDisallowed(t *testing.T) {
	tab := NewTable(1, DefaultSizes())
	tab.SetLimit(0, IntIQ, 1)
	tab.Alloc(0, IntIQ)
	defer func() {
		if recover() == nil {
			t.Fatal("over-limit alloc did not panic")
		}
	}()
	tab.Alloc(0, IntIQ)
}

func TestFreePanicsAtZero(t *testing.T) {
	tab := NewTable(1, DefaultSizes())
	defer func() {
		if recover() == nil {
			t.Fatal("free at zero occupancy did not panic")
		}
	}()
	tab.Free(0, ROB)
}

func TestSetLimitClamps(t *testing.T) {
	tab := NewTable(1, DefaultSizes())
	tab.SetLimit(0, ROB, 10_000)
	if tab.Limit(0, ROB) != 512 {
		t.Fatalf("limit not clamped to capacity: %d", tab.Limit(0, ROB))
	}
	tab.SetLimit(0, ROB, -5)
	if tab.Limit(0, ROB) != 1 {
		t.Fatalf("limit not clamped to 1: %d", tab.Limit(0, ROB))
	}
}

// TestSetLimitUnchangedKeepsVersion: re-programming the limit already in
// force is a no-op, so a policy that rewrites its caps every cycle (DCRA)
// bumps the version only when a cap actually moves, and leaving
// share-based programming always counts as a change.
func TestSetLimitUnchangedKeepsVersion(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	tab.SetLimit(0, ROB, 100)
	v := tab.Version()
	tab.SetLimit(0, ROB, 100)
	if tab.Version() != v {
		t.Fatal("unchanged SetLimit bumped the version")
	}
	tab.SetLimit(0, ROB, 101)
	if tab.Version() == v {
		t.Fatal("changed SetLimit kept the version")
	}
	tab.SetShares(EqualShares(2, 256))
	v = tab.Version()
	tab.SetLimit(0, ROB, tab.Limit(0, ROB))
	if tab.Version() == v {
		t.Fatal("SetLimit leaving share programming kept the version")
	}
	if _, ok := tab.ProgrammedShares(); ok {
		t.Fatal("SetLimit left the share vector in force")
	}
}

func TestCloneIndependence(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	tab.SetShares(Shares{100, 156})
	tab.Alloc(0, ROB)
	c := tab.CloneInto(nil)
	tab.Alloc(0, ROB)
	tab.SetShares(Shares{128, 128})
	if c.Occ(0, ROB) != 1 {
		t.Fatalf("clone occupancy changed: %d", c.Occ(0, ROB))
	}
	if c.Limit(0, IntRename) != 100 {
		t.Fatalf("clone limit changed: %d", c.Limit(0, IntRename))
	}
}

func TestSetSharesPanicsOnWrongLength(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length SetShares did not panic")
		}
	}()
	tab.SetShares(Shares{256})
}

func TestCheckConservation(t *testing.T) {
	tab := NewTable(2, DefaultSizes())
	if err := tab.CheckConservation(); err != nil {
		t.Fatalf("fresh table fails conservation: %v", err)
	}
	if _, ok := tab.ProgrammedShares(); ok {
		t.Fatal("fresh table reports programmed shares")
	}

	v := tab.Version()
	tab.SetShares(EqualShares(2, 256))
	if tab.Version() == v {
		t.Fatal("SetShares did not bump the version")
	}
	if err := tab.CheckConservation(); err != nil {
		t.Fatalf("equal shares fail conservation: %v", err)
	}
	got, ok := tab.ProgrammedShares()
	if !ok || got.Sum() != 256 {
		t.Fatalf("ProgrammedShares = %v, %v", got, ok)
	}

	// A short share vector must be reported.
	tab.SetShares(Shares{120, 120})
	if err := tab.CheckConservation(); err == nil {
		t.Fatal("short share vector passed conservation")
	}

	// A share below MinShare must be reported.
	tab.SetShares(Shares{256 - 4, 4})
	if err := tab.CheckConservation(); err == nil {
		t.Fatal("sub-MinShare share passed conservation")
	}

	// Direct limit programming leaves share checks out of force.
	tab.SetLimit(0, IntIQ, 40)
	if err := tab.CheckConservation(); err != nil {
		t.Fatalf("direct limits fail conservation: %v", err)
	}
	if _, ok := tab.ProgrammedShares(); ok {
		t.Fatal("SetLimit left stale programmed shares in force")
	}

	// Rename-only programming keeps IQ/ROB at capacity.
	tab.SetSharesRenameOnly(EqualShares(2, 256))
	if err := tab.CheckConservation(); err != nil {
		t.Fatalf("rename-only shares fail conservation: %v", err)
	}
	if tab.Limit(0, ROB) != DefaultSizes()[ROB] {
		t.Fatalf("rename-only left ROB limit %d", tab.Limit(0, ROB))
	}

	// A mutilated limit register under share programming is caught.
	tab.SetShares(EqualShares(2, 256))
	tab.limit[tab.idx(1, ROB)]--
	if err := tab.CheckConservation(); err == nil {
		t.Fatal("tampered ROB limit passed conservation")
	}
}
