package trace

import (
	"testing"

	"smthill/internal/isa"
)

func TestChaseChainsRotate(t *testing.T) {
	p := testProfile()
	p.A.PointerChase = 1.0
	p.A.ChaseChains = 4
	p.A.MissBurstProb = 0
	g := New(p)
	regs := map[int8]int{}
	var in isa.Inst
	for i := 0; i < 5000; i++ {
		g.Next(&in)
		if in.Class == isa.Load {
			regs[in.Dest]++
		}
	}
	if len(regs) != 4 {
		t.Fatalf("chase loads used %d registers, want 4 chains", len(regs))
	}
	for r := range regs {
		if r < 28 || r > 31 {
			t.Fatalf("chase register %d outside the reserved range", r)
		}
	}
}

func TestChaseChainsClamped(t *testing.T) {
	p := Profile{Seed: 1, A: Params{PointerChase: 1, ChaseChains: 99, FracLoad: 0.5}}
	g := New(p)
	if g.Profile().A.ChaseChains != 12 {
		t.Fatalf("ChaseChains clamped to %d", g.Profile().A.ChaseChains)
	}
	p.A.ChaseChains = -3
	if New(p).Profile().A.ChaseChains != 1 {
		t.Fatal("negative ChaseChains not clamped to 1")
	}
}

func TestAddrReadyControlsOperands(t *testing.T) {
	count := func(addrReady float64) (stable, total int) {
		p := testProfile()
		p.A.PointerChase = 0
		p.A.MissBurstProb = 0
		p.A.AddrReady = addrReady
		g := New(p)
		var in isa.Inst
		for i := 0; i < 50000; i++ {
			g.Next(&in)
			if in.Class == isa.Load {
				total++
				if in.Src1 == 0 {
					stable++
				}
			}
		}
		return stable, total
	}
	loStable, loTotal := count(0.1)
	hiStable, hiTotal := count(0.9)
	loFrac := float64(loStable) / float64(loTotal)
	hiFrac := float64(hiStable) / float64(hiTotal)
	if loFrac > 0.2 || hiFrac < 0.8 {
		t.Fatalf("AddrReady not respected: low=%.2f high=%.2f", loFrac, hiFrac)
	}
}

func TestDefaultedAddrReady(t *testing.T) {
	var p Profile
	d := p.Defaulted()
	if d.A.AddrReady != 0.6 || d.B.AddrReady != 0.6 {
		t.Fatalf("AddrReady defaults = %f/%f", d.A.AddrReady, d.B.AddrReady)
	}
	p.A.AddrReady = 0.25
	d = p.Defaulted()
	if d.B.AddrReady != 0.25 {
		t.Fatal("pole B did not inherit pole A's AddrReady")
	}
}

func TestStridePatternHasSpatialLocality(t *testing.T) {
	p := testProfile()
	p.A.StridePct = 1.0
	p.A.PointerChase = 0
	p.A.MissBurstProb = 0
	p.A.Stride = 8
	p.A.WorkingSet = 1 << 20
	g := New(p)
	var prev uint64
	sequential, total := 0, 0
	var in isa.Inst
	for i := 0; i < 30000; i++ {
		g.Next(&in)
		if in.Class == isa.Load || in.Class == isa.Store {
			if prev != 0 && (in.Addr == prev+8 || in.Addr < prev) {
				sequential++
			}
			prev = in.Addr
			total++
		}
	}
	if frac := float64(sequential) / float64(total); frac < 0.95 {
		t.Fatalf("stride-only accesses sequential fraction %.2f", frac)
	}
}

func TestBranchTargetsAreStable(t *testing.T) {
	g := New(testProfile())
	targets := map[uint16]map[uint64]bool{}
	var in isa.Inst
	for i := 0; i < 200000; i++ {
		g.Next(&in)
		if in.Class == isa.Branch && in.Taken {
			if targets[in.BB] == nil {
				targets[in.BB] = map[uint64]bool{}
			}
			targets[in.BB][in.Target] = true
		}
	}
	for bb, set := range targets {
		if len(set) > 1 {
			t.Fatalf("block %d's branch has %d distinct taken-targets", bb, len(set))
		}
	}
}

func TestCloneAfterPhaseSwitch(t *testing.T) {
	p := testProfile()
	p.Kind = PhaseHigh
	p.SegLen = 3000
	g := New(p)
	collect(g, 10_000) // cross several segment boundaries
	c := g.CloneStream(nil).(*Gen)
	a := collect(g, 8000)
	b := collect(c, 8000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone diverged at %d after phase switches", i)
		}
	}
}
