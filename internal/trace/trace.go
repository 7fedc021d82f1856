// Package trace generates synthetic committed-path instruction streams that
// stand in for the SPEC CPU2000 binaries driving the paper's experiments.
//
// The learning techniques under study observe only a thread's dynamic
// behaviour: instruction mix, dependence structure (ILP), branch
// predictability, cache-miss rates, memory-level parallelism, and how all
// of those vary over time. Each application model is therefore a small
// parameterised stochastic process — deterministic for a given seed — that
// reproduces those observable characteristics. internal/workload calibrates
// 22 such models against the paper's Table 2 (instruction type, resource
// requirement "Rsc", and requirement-variation frequency "Freq").
//
// Generators are plain values: copying a Gen checkpoints it, which the
// simulator's Clone/restore machinery (OFF-LINE and RAND-HILL learning)
// relies on.
package trace

import (
	"smthill/internal/isa"
	"smthill/internal/rng"
)

// Params are the dynamic-behaviour knobs of an application model. A
// Profile holds two Params poles (A and B); phase scheduling switches
// between them to create the paper's high-/low-frequency resource
// requirement variation.
type Params struct {
	// Instruction mix. FracLoad + FracStore + FracBranch must be < 1;
	// the remainder is compute, split by FracFp into floating-point vs
	// integer and by FracMulDiv into long-latency multiplies/divides.
	FracLoad   float64
	FracStore  float64
	FracBranch float64
	FracFp     float64
	FracMulDiv float64

	// ChainDep is the probability that a compute instruction's first
	// source is the most recently written register, forming serial
	// dependence chains that cap ILP regardless of cache behaviour.
	ChainDep float64

	// WorkingSet is the size in bytes of the region touched by ordinary
	// loads and stores; together with the cache geometry it sets the L1
	// and L2 miss rates.
	WorkingSet uint64
	// StridePct is the fraction of ordinary accesses that walk the
	// working set sequentially (high spatial locality); the rest are
	// uniform random within the working set.
	StridePct float64
	// Stride is the sequential access stride in bytes.
	Stride uint64

	// PointerChase is the probability that a load is a serially
	// dependent miss in a memory-sized region (an mcf-style pointer
	// chase): its address register is the previous chase load's
	// destination, so misses within a chain cannot overlap.
	PointerChase float64
	// ChaseChains is the number of independent pointer chains chase
	// loads rotate across (1..12, default 1). It caps the memory-level
	// parallelism of chase misses at ChaseChains regardless of window
	// size — the knob that gives pointer codes their bounded resource
	// requirement.
	ChaseChains int
	// MissBurstProb is the per-instruction probability of starting a
	// burst of independent far loads (cache-miss clustering). Exploiting
	// a burst requires a large window partition, which is the behaviour
	// hill-climbing learns and occupancy-driven heuristics miss.
	MissBurstProb float64
	// BurstLen is the mean number of independent far loads per burst.
	BurstLen float64

	// BranchNoise is the probability that a branch deviates from its
	// learned periodic pattern; it sets the floor on the branch
	// predictor's achievable accuracy.
	BranchNoise float64

	// AddrReady is the probability that an ordinary load or store takes
	// its address from a stable base register (always ready) rather than
	// a recent producer. It controls how much memory-level parallelism a
	// larger window can expose: high values (streaming array codes) make
	// independent misses overlap freely; low values serialise them
	// behind address computations. Defaulted to 0.6 when zero.
	AddrReady float64
}

// PhaseKind classifies how a model's resource requirements vary over
// time, mirroring the "Freq" column of the paper's Table 2.
type PhaseKind uint8

const (
	// PhaseNone: steady behaviour; pole A only.
	PhaseNone PhaseKind = iota
	// PhaseHigh: pole switches every segment or two (a change every one
	// or two 64K-cycle epochs at typical IPCs).
	PhaseHigh
	// PhaseLow: pole switches after several segments.
	PhaseLow
)

// String returns the Table 2 spelling of the phase kind.
func (k PhaseKind) String() string {
	switch k {
	case PhaseHigh:
		return "High"
	case PhaseLow:
		return "Low"
	default:
		return "No"
	}
}

// Profile is a complete application model: two behaviour poles plus the
// static code layout and phase schedule.
type Profile struct {
	// Name identifies the model (Table 2 benchmark name).
	Name string
	// Seed makes the model's stochastic process deterministic.
	Seed uint64
	// A is the primary behaviour; B is the alternate pole used by phase
	// variation (ignored when Kind == PhaseNone).
	A, B Params
	// Kind selects the phase schedule.
	Kind PhaseKind
	// SegLen is the phase segment length in instructions. High-frequency
	// models switch poles on (almost) every segment boundary;
	// low-frequency models hold a pole for several segments.
	SegLen uint64
	// Blocks is the number of static basic blocks; BlockLen is the mean
	// block length in instructions. Together they determine the static
	// code footprint seen by the branch predictor and the BBV phase
	// detector.
	Blocks   int
	BlockLen int
}

// Defaulted returns a copy of p with zero-valued structural fields
// replaced by sane defaults.
func (p Profile) Defaulted() Profile {
	if p.Blocks == 0 {
		p.Blocks = 64
	}
	if p.BlockLen == 0 {
		p.BlockLen = 8
	}
	if p.SegLen == 0 {
		p.SegLen = 80_000
	}
	if p.A.Stride == 0 {
		p.A.Stride = 8
	}
	if p.B.Stride == 0 {
		p.B.Stride = 8
	}
	if p.A.WorkingSet == 0 {
		p.A.WorkingSet = 32 << 10
	}
	if p.B.WorkingSet == 0 {
		p.B.WorkingSet = p.A.WorkingSet
	}
	if p.A.BurstLen == 0 {
		p.A.BurstLen = 4
	}
	if p.B.BurstLen == 0 {
		p.B.BurstLen = p.A.BurstLen
	}
	if p.A.AddrReady == 0 {
		p.A.AddrReady = 0.6
	}
	if p.B.AddrReady == 0 {
		p.B.AddrReady = p.A.AddrReady
	}
	p.A.ChaseChains = clampChains(p.A.ChaseChains)
	p.B.ChaseChains = clampChains(p.B.ChaseChains)
	return p
}

// clampChains bounds ChaseChains to the reserved registers 20..31.
func clampChains(k int) int {
	if k < 1 {
		return 1
	}
	if k > 12 {
		return 12
	}
	return k
}

// Address-space layout (per thread; the machine offsets each thread into
// a disjoint region).
const (
	codeBase  = 0x0040_0000 // static code
	heapBase  = 0x1000_0000 // ordinary working-set accesses
	chaseBase = 0x4000_0000 // pointer-chase region
	burstBase = 0x8000_0000 // miss-burst region
	chaseSize = 64 << 20    // far larger than L2: chases always miss
	burstSize = 64 << 20
)

// branchState is the per-static-branch pattern state. Each basic block
// ends in one conditional branch with a fixed taken-target (as real
// conditional branches have) and a periodic outcome pattern perturbed by
// the model's BranchNoise.
type branchState struct {
	period  uint16 // pattern period
	takenLo uint16 // taken for counter % period < takenLo
	counter uint16
	target  uint16 // taken-target block, fixed at construction
}

// Gen generates an application model's instruction stream. It implements
// isa.Stream. Copying a Gen (or calling CloneStream) checkpoints it.
type Gen struct {
	prof Profile
	rng  rng.Rng

	seq   uint64
	limit uint64 // 0 = unbounded

	// static code layout
	branches []branchState // one per block

	// dynamic position
	block     int    // current basic block
	blockPos  int    // instructions emitted in current block
	blockLen  int    // length of current block (varies around BlockLen)
	destInt   int8   // round-robin integer destination cursor
	destFp    int8   // round-robin FP destination cursor
	lastInt   int8   // most recent integer destination (chain deps)
	lastFp    int8   // most recent FP destination
	chaseIdx  uint32 // rotates chase loads across the parallel chains
	strideCur uint64 // sequential-access cursor
	burstLeft int    // independent far loads remaining in current burst

	pole bool // false = A, true = B (current phase pole)

	// cut holds each pole's probabilities as integer draw cuts, indexed
	// like pole (0 = A, 1 = B).
	cut [2]cuts
}

// cuts are one Params pole's probabilities precomputed as rng.Threshold
// cuts, so every per-instruction Bernoulli draw is an integer compare
// that decides exactly as rng.Float64() < p would.
type cuts struct {
	load, loadStore, fp, mulDiv, chainDep  uint64
	stride, chase, burst, noise, addrReady uint64
}

func cutsOf(p *Params) cuts {
	return cuts{
		load:      rng.Threshold(p.FracLoad),
		loadStore: rng.Threshold(p.FracLoad + p.FracStore),
		fp:        rng.Threshold(p.FracFp),
		mulDiv:    rng.Threshold(p.FracMulDiv),
		chainDep:  rng.Threshold(p.ChainDep),
		stride:    rng.Threshold(p.StridePct),
		chase:     rng.Threshold(p.PointerChase),
		burst:     rng.Threshold(p.MissBurstProb),
		noise:     rng.Threshold(p.BranchNoise),
		addrReady: rng.Threshold(p.AddrReady),
	}
}

// Fixed draw cuts used by every model.
var (
	halfCut    = rng.Threshold(0.5)
	quarterCut = rng.Threshold(0.25)
	loopCut    = rng.Threshold(0.55) // static branch population mix
	biasedCut  = rng.Threshold(0.80)
)

// New returns a generator for profile p producing an unbounded stream.
func New(p Profile) *Gen {
	return NewLimited(p, 0)
}

// NewLimited returns a generator that ends after limit instructions
// (0 = unbounded).
func NewLimited(p Profile, limit uint64) *Gen {
	p = p.Defaulted()
	g := &Gen{
		prof:    p,
		rng:     rng.New(p.Seed),
		limit:   limit,
		destInt: 1,
		destFp:  1,
		cut:     [2]cuts{cutsOf(&p.A), cutsOf(&p.B)},
	}
	g.branches = make([]branchState, p.Blocks)
	half := p.Blocks / 2
	for i := range g.branches {
		// Compose a realistic static branch population: mostly loop
		// back-edges (taken except once per long period) and strongly
		// biased branches, which 2-bit counters predict well, plus some
		// short-pattern branches that exercise gshare. The model's
		// BranchNoise knob injects the residual mispredictions on top.
		// The fixed taken-target stays within the block's half of the
		// code so the two phase poles execute disjoint block sets.
		var period, takenLo uint16
		switch u := g.rng.Uint53(); {
		case u < loopCut: // loop back-edge
			period = uint16(8 + g.rng.Intn(25))
			takenLo = period - 1
		case u < biasedCut: // strongly biased
			period = 2
			if g.rng.Below(halfCut) {
				takenLo = 2 // always taken
			} else {
				takenLo = 0 // never taken
			}
		default: // short pattern
			period = uint16(2 + g.rng.Intn(6))
			takenLo = uint16(g.rng.Intn(int(period) + 1))
		}
		lo, span := 0, p.Blocks
		if half > 0 {
			span = half
			if i >= half {
				lo = half
				span = p.Blocks - half
			}
		}
		g.branches[i] = branchState{
			period:  period,
			takenLo: takenLo,
			target:  uint16(lo + g.rng.Intn(span)),
		}
	}
	g.blockLen = g.nextBlockLen()
	return g
}

// CloneStream implements isa.Stream. A *Gen dst is overwritten in
// place, reusing its branch-state array.
func (g *Gen) CloneStream(dst isa.Stream) isa.Stream {
	d, ok := dst.(*Gen)
	if !ok {
		d = new(Gen)
	}
	branches := d.branches
	*d = *g
	d.branches = append(branches[:0], g.branches...)
	return d
}

// Profile returns the generator's (defaulted) profile.
func (g *Gen) Profile() Profile { return g.prof }

// Seq returns the number of instructions generated so far.
func (g *Gen) Seq() uint64 { return g.seq }

func (g *Gen) nextBlockLen() int {
	n := g.prof.BlockLen/2 + g.rng.Intn(g.prof.BlockLen+1)
	if n < 2 {
		n = 2
	}
	return n
}

// params returns the currently active behaviour pole and its draw cuts.
func (g *Gen) params() (*Params, *cuts) {
	if g.pole {
		return &g.prof.B, &g.cut[1]
	}
	return &g.prof.A, &g.cut[0]
}

// phaseHash deterministically maps a segment index to a pseudo-random
// 64-bit value, independent of the generator's RNG stream so that phase
// schedules never perturb instruction-level randomness.
func (g *Gen) phaseHash(seg uint64) uint64 {
	x := seg ^ (g.prof.Seed * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// updatePhase recomputes the active pole from the instruction count.
func (g *Gen) updatePhase() {
	if g.prof.Kind == PhaseNone {
		g.pole = false
		return
	}
	seg := g.seq / g.prof.SegLen
	switch g.prof.Kind {
	case PhaseHigh:
		// Switch poles on most segment boundaries: pole is a hash bit of
		// the segment index, so consecutive segments usually differ.
		g.pole = g.phaseHash(seg)&1 == 1
	case PhaseLow:
		// Hold each pole for a run of ~6 segments.
		g.pole = g.phaseHash(seg/6)&1 == 1
	}
}

// blockWindow returns the half of the static blocks the current pole
// executes in, so that phases have distinct Basic Block Vector
// signatures (required for Section 5's phase detection to have a signal).
func (g *Gen) blockWindow() (lo, hi int) {
	half := g.prof.Blocks / 2
	if half == 0 {
		return 0, g.prof.Blocks
	}
	if g.pole {
		return half, g.prof.Blocks
	}
	return 0, half
}

// srcFar picks a source register written long ago (very likely ready),
// modelling an ILP-friendly operand.
func (g *Gen) srcFar(fp bool) int8 {
	cursor := g.destInt
	if fp {
		cursor = g.destFp
	}
	// Registers 1..27 are general; reach 8..24 writes back from the
	// cursor so the producer has almost certainly completed.
	off := int8(8 + g.rng.Intn(17))
	r := cursor - off
	for r < 1 {
		r += 27
	}
	return r
}

// srcStable returns an operand that is ready with the probability whose
// rng.Threshold cut is ready: register 0 models constants, immediates,
// and stable base registers (stack/global pointers, loop bases) that
// real code reads pervasively — without it, the 32-register file would
// chain every instruction to a recent producer and cap the useful
// window at ~100 instructions, destroying the large-window behaviour
// the MEM benchmarks exhibit. When the operand is not stable, it binds
// to a recent producer half the time (a genuine serialisation) and an
// old register otherwise.
func (g *Gen) srcStable(fp bool, ready uint64) int8 {
	if g.rng.Below(ready) {
		return 0
	}
	if g.rng.Below(halfCut) {
		last := g.lastInt
		if fp {
			last = g.lastFp
		}
		if last >= 1 {
			return last
		}
	}
	return g.srcFar(fp)
}

// allocDest advances the destination cursor, skipping reserved registers.
func (g *Gen) allocDest(fp bool) int8 {
	if fp {
		g.destFp++
		if g.destFp > 27 {
			g.destFp = 1
		}
		g.lastFp = g.destFp
		return g.destFp
	}
	g.destInt++
	if g.destInt > 27 {
		g.destInt = 1
	}
	g.lastInt = g.destInt
	return g.destInt
}

// memAddr produces the effective address of an ordinary (non-chase,
// non-burst) access under the active pole.
func (g *Gen) memAddr(p *Params, c *cuts) uint64 {
	ws := p.WorkingSet
	if ws < 64 {
		ws = 64
	}
	if g.rng.Below(c.stride) {
		g.strideCur += p.Stride
		if g.strideCur >= ws {
			g.strideCur = 0
		}
		return heapBase + g.strideCur
	}
	return heapBase + (g.rng.Uint64() % ws &^ 7)
}

// Next implements isa.Stream.
func (g *Gen) Next(out *isa.Inst) bool {
	if g.limit != 0 && g.seq >= g.limit {
		return false
	}
	if g.prof.Kind != PhaseNone && g.seq%g.prof.SegLen == 0 {
		g.updatePhase()
	}
	p, c := g.params()

	*out = isa.Inst{
		Seq:  g.seq,
		PC:   codeBase + uint64(g.block)*256 + uint64(g.blockPos)*4,
		BB:   uint16(g.block),
		Dest: isa.NoReg,
		Src1: isa.NoReg,
		Src2: isa.NoReg,
	}
	g.seq++

	// Block-ending branch?
	if g.blockPos == g.blockLen-1 {
		g.emitBranch(out, c)
		g.blockPos = 0
		g.blockLen = g.nextBlockLen()
		return true
	}
	g.blockPos++

	// Inside a miss burst: emit independent far loads until it drains.
	if g.burstLeft > 0 {
		g.burstLeft--
		out.Class = isa.Load
		out.Addr = burstBase + (g.rng.Uint64() % burstSize &^ 7)
		out.Src1 = 0 // address from a stable base: bursts are independent
		out.Dest = g.allocDest(false)
		return true
	}
	if p.MissBurstProb > 0 && g.rng.Below(c.burst) {
		g.burstLeft = g.rng.Geometric(p.BurstLen)
	}

	switch u := g.rng.Uint53(); {
	case u < c.load:
		g.emitLoad(out, p, c)
	case u < c.loadStore:
		g.emitStore(out, p, c)
	default:
		g.emitCompute(out, c)
	}
	return true
}

func (g *Gen) emitLoad(out *isa.Inst, p *Params, c *cuts) {
	out.Class = isa.Load
	if p.PointerChase > 0 && g.rng.Below(c.chase) {
		// Serially dependent miss: the address comes from this chain's
		// previous chase load; the destination feeds the chain's next
		// one. Registers 31 down to 20 are reserved for the chains.
		reg := int8(31 - int(g.chaseIdx)%p.ChaseChains)
		g.chaseIdx++
		out.Src1 = reg
		out.Dest = reg
		out.Addr = chaseBase + (g.rng.Uint64() % chaseSize &^ 7)
		return
	}
	out.Addr = g.memAddr(p, c)
	out.Src1 = g.srcStable(false, c.addrReady)
	fp := g.rng.Below(c.fp)
	out.FpDest = fp
	out.Dest = g.allocDest(fp)
}

func (g *Gen) emitStore(out *isa.Inst, p *Params, c *cuts) {
	out.Class = isa.Store
	out.Addr = g.memAddr(p, c)
	out.Src1 = g.srcStable(false, c.addrReady) // address operand
	// Data operand: usually the most recent result, binding stores into
	// the dependence fabric.
	if g.rng.Below(halfCut) {
		out.Src2 = g.lastInt
	} else {
		out.Src2 = g.srcFar(false)
	}
	if out.Src2 < 1 {
		out.Src2 = 1
	}
}

func (g *Gen) emitCompute(out *isa.Inst, c *cuts) {
	fp := g.rng.Below(c.fp)
	muldiv := g.rng.Below(c.mulDiv)
	switch {
	case fp && muldiv:
		if g.rng.Below(quarterCut) {
			out.Class = isa.FpDiv
		} else {
			out.Class = isa.FpMul
		}
	case fp:
		out.Class = isa.FpAlu
	case muldiv:
		if g.rng.Below(quarterCut) {
			out.Class = isa.IntDiv
		} else {
			out.Class = isa.IntMul
		}
	default:
		out.Class = isa.IntAlu
	}

	last := g.lastInt
	if fp {
		last = g.lastFp
	}
	if last >= 1 && g.rng.Below(c.chainDep) {
		out.Src1 = last // serial chain
	} else {
		out.Src1 = g.srcStable(fp, halfCut)
	}
	if g.rng.Below(halfCut) {
		out.Src2 = g.srcStable(fp, halfCut)
	}
	out.Dest = g.allocDest(fp)
}

func (g *Gen) emitBranch(out *isa.Inst, c *cuts) {
	out.Class = isa.Branch
	b := &g.branches[g.block]
	taken := b.counter%b.period < b.takenLo
	b.counter++
	if c.noise > 0 && g.rng.Below(c.noise) {
		taken = !taken
	}
	out.Taken = taken

	lo, hi := g.blockWindow()
	span := hi - lo
	rel := g.block - lo
	if rel < 0 || rel >= span {
		// A phase switch moved the block window; re-enter it.
		rel = 0
	}
	var next int
	if taken {
		next = int(b.target)
		if next < lo || next >= hi {
			next = lo // migrate into the new pole's window
		}
	} else {
		next = lo + (rel+1)%span
	}
	out.Target = codeBase + uint64(next)*256
	g.block = next
}

var _ isa.Stream = (*Gen)(nil)
