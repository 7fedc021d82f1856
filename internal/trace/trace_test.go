package trace

import (
	"testing"
	"testing/quick"

	"smthill/internal/isa"
)

func testProfile() Profile {
	return Profile{
		Name: "test",
		Seed: 1,
		A: Params{
			FracLoad: 0.25, FracStore: 0.1, FracBranch: 0.12,
			FracFp: 0.3, FracMulDiv: 0.1,
			ChainDep: 0.3, WorkingSet: 256 << 10, StridePct: 0.6,
			PointerChase: 0.05, MissBurstProb: 0.01, BurstLen: 4,
			BranchNoise: 0.05,
		},
		Kind: PhaseNone,
	}
}

func collect(g *Gen, n int) []isa.Inst {
	out := make([]isa.Inst, 0, n)
	var in isa.Inst
	for i := 0; i < n; i++ {
		if !g.Next(&in) {
			break
		}
		out = append(out, in)
	}
	return out
}

func TestDeterminism(t *testing.T) {
	a := collect(New(testProfile()), 5000)
	b := collect(New(testProfile()), 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCloneReplays(t *testing.T) {
	g := New(testProfile())
	collect(g, 1234) // advance to an arbitrary point
	c := g.CloneStream(nil).(*Gen)
	a := collect(g, 3000)
	b := collect(c, 3000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone diverged at instruction %d", i)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := New(testProfile())
	c := g.CloneStream(nil).(*Gen)
	collect(g, 500) // advancing g must not disturb c
	a := collect(New(testProfile()), 100)
	b := collect(c, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone was perturbed by original at instruction %d", i)
		}
	}
}

func TestSeqNumbers(t *testing.T) {
	g := New(testProfile())
	insts := collect(g, 1000)
	for i, in := range insts {
		if in.Seq != uint64(i) {
			t.Fatalf("instruction %d has Seq %d", i, in.Seq)
		}
	}
	if g.Seq() != 1000 {
		t.Fatalf("Seq() = %d", g.Seq())
	}
}

func TestLimit(t *testing.T) {
	g := NewLimited(testProfile(), 100)
	insts := collect(g, 1000)
	if len(insts) != 100 {
		t.Fatalf("limited stream produced %d instructions", len(insts))
	}
	var in isa.Inst
	if g.Next(&in) {
		t.Fatal("stream continued past its limit")
	}
}

func TestInstructionMix(t *testing.T) {
	g := New(testProfile())
	insts := collect(g, 200000)
	var loads, stores, branches int
	for _, in := range insts {
		switch in.Class {
		case isa.Load:
			loads++
		case isa.Store:
			stores++
		case isa.Branch:
			branches++
		}
	}
	n := float64(len(insts))
	// Branch fraction is set by the block-length geometry; with
	// BlockLen=8 roughly 1 in 8 instructions is a branch.
	if f := float64(branches) / n; f < 0.08 || f > 0.20 {
		t.Errorf("branch fraction = %.3f", f)
	}
	// Loads: FracLoad of non-branch slots, plus burst loads.
	if f := float64(loads) / n; f < 0.15 || f > 0.40 {
		t.Errorf("load fraction = %.3f", f)
	}
	if f := float64(stores) / n; f < 0.04 || f > 0.18 {
		t.Errorf("store fraction = %.3f", f)
	}
}

func TestOperandValidity(t *testing.T) {
	g := New(testProfile())
	var in isa.Inst
	for i := 0; i < 100000; i++ {
		if !g.Next(&in) {
			t.Fatal("unbounded stream ended")
		}
		for _, r := range []int8{in.Dest, in.Src1, in.Src2} {
			if r != isa.NoReg && (r < 0 || r >= isa.RegsPerFile) {
				t.Fatalf("instruction %d has register %d out of range: %+v", i, r, in)
			}
		}
		if in.Class.IsMem() && in.Addr == 0 {
			t.Fatalf("memory instruction %d has zero address", i)
		}
		if in.Class == isa.Branch && in.Dest != isa.NoReg {
			t.Fatalf("branch %d has a destination register", i)
		}
		if in.Class == isa.Store && in.Dest != isa.NoReg {
			t.Fatalf("store %d has a destination register", i)
		}
	}
}

func TestPointerChaseIsSerial(t *testing.T) {
	p := testProfile()
	p.A.PointerChase = 1.0 // every load chases
	p.A.MissBurstProb = 0
	g := New(p)
	insts := collect(g, 20000)
	for _, in := range insts {
		if in.Class == isa.Load {
			if in.Src1 != in.Dest {
				t.Fatalf("chase load not serially dependent: %+v", in)
			}
			if in.Addr < chaseBase {
				t.Fatalf("chase load address %x below chase region", in.Addr)
			}
		}
	}
}

func TestBurstLoadsAreIndependent(t *testing.T) {
	p := testProfile()
	p.A.MissBurstProb = 0.2
	p.A.PointerChase = 0
	g := New(p)
	insts := collect(g, 50000)
	burst := 0
	for _, in := range insts {
		if in.Class == isa.Load && in.Addr >= burstBase {
			burst++
			if in.Src1 == in.Dest {
				t.Fatalf("burst load is serially dependent: %+v", in)
			}
		}
	}
	if burst == 0 {
		t.Fatal("no burst loads generated")
	}
}

func TestPhaseSchedules(t *testing.T) {
	for _, kind := range []PhaseKind{PhaseHigh, PhaseLow} {
		p := testProfile()
		p.Kind = kind
		p.SegLen = 10000
		p.B = p.A
		p.B.WorkingSet = 8 << 20
		g := New(p)
		// Record the pole at each segment and verify both appear.
		seen := map[bool]int{}
		transitions := 0
		prev := false
		var in isa.Inst
		for i := 0; i < 400000; i++ {
			g.Next(&in)
			if i%int(p.SegLen) == 0 {
				seen[g.pole]++
				if i > 0 && g.pole != prev {
					transitions++
				}
				prev = g.pole
			}
		}
		if len(seen) != 2 {
			t.Fatalf("%v: only one pole observed over 40 segments", kind)
		}
		if kind == PhaseHigh && transitions < 10 {
			t.Errorf("high-frequency schedule made only %d transitions", transitions)
		}
		if kind == PhaseLow && transitions > 15 {
			t.Errorf("low-frequency schedule made %d transitions", transitions)
		}
	}
}

func TestPhasesUseDistinctBlocks(t *testing.T) {
	p := testProfile()
	p.Kind = PhaseLow
	p.SegLen = 5000
	p.Blocks = 64
	g := New(p)
	var in isa.Inst
	wrong, total := 0, 0
	for i := 0; i < 600000; i++ {
		g.Next(&in)
		total++
		// Pole A executes blocks [0, 32); pole B executes [32, 64).
		inUpper := in.BB >= 32
		if inUpper != g.pole {
			wrong++
		}
	}
	// A handful of instructions leak across each pole switch (the block
	// in flight when the segment boundary passes), but the signal must
	// dominate so phases have distinct BBV signatures.
	if f := float64(wrong) / float64(total); f > 0.02 {
		t.Fatalf("%.2f%% of instructions executed outside their pole's block window", 100*f)
	}
}

func TestBranchNoiseControlsIrregularity(t *testing.T) {
	// With zero noise each static branch is perfectly periodic.
	p := testProfile()
	p.A.BranchNoise = 0
	g := New(p)
	insts := collect(g, 100000)
	// Track outcomes per static branch (by BB) and verify periodicity.
	hist := map[uint16][]bool{}
	for _, in := range insts {
		if in.Class == isa.Branch {
			hist[in.BB] = append(hist[in.BB], in.Taken)
		}
	}
	checked := 0
	for bb, outcomes := range hist {
		if len(outcomes) < 40 {
			continue
		}
		// Find a period <= 40 that explains the whole sequence.
		found := false
		for period := 1; period <= 40; period++ {
			ok := true
			for i := period; i < len(outcomes); i++ {
				if outcomes[i] != outcomes[i-period] {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("branch in block %d is not periodic with noise 0", bb)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no static branch executed often enough to check")
	}
}

func TestDefaulted(t *testing.T) {
	var p Profile
	d := p.Defaulted()
	if d.Blocks == 0 || d.BlockLen == 0 || d.SegLen == 0 || d.A.Stride == 0 || d.A.WorkingSet == 0 || d.A.BurstLen == 0 {
		t.Fatalf("Defaulted left zero fields: %+v", d)
	}
}

func TestPhaseHashDeterministic(t *testing.T) {
	if err := quick.Check(func(seed, seg uint64) bool {
		a := New(Profile{Seed: seed})
		b := New(Profile{Seed: seed})
		return a.phaseHash(seg) == b.phaseHash(seg)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetBoundsAddresses(t *testing.T) {
	p := testProfile()
	p.A.PointerChase = 0
	p.A.MissBurstProb = 0
	p.A.WorkingSet = 4096
	g := New(p)
	insts := collect(g, 50000)
	for _, in := range insts {
		if in.Class.IsMem() {
			if in.Addr < heapBase || in.Addr >= heapBase+4096 {
				t.Fatalf("address %#x outside working set", in.Addr)
			}
		}
	}
}
