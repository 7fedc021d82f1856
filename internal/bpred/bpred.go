// Package bpred implements the branch predictor of the paper's SMT model
// (Table 1): a hybrid predictor with an 8192-entry gshare component, a
// 2048-entry bimodal component, an 8192-entry meta chooser, a 2048-entry
// 4-way set-associative BTB, and a 64-entry return address stack.
//
// In an SMT processor the predictor tables are shared across hardware
// contexts, but each context keeps its own global history register and
// return address stack; this package follows that organisation.
//
// All state lives in plain slices so a Predictor can be deep-copied for
// machine checkpointing (CloneInto).
package bpred

import (
	"fmt"
	"slices"
)

// Config sizes the predictor components. The zero value is invalid; use
// Default for the paper's Table 1 configuration.
type Config struct {
	GshareEntries  int // pattern history table entries (power of two)
	BimodalEntries int // bimodal table entries (power of two)
	MetaEntries    int // meta chooser entries (power of two)
	BTBSets        int // BTB sets (power of two)
	BTBWays        int // BTB associativity
	RASEntries     int // return address stack depth per context
	Contexts       int // hardware thread contexts
}

// Default returns the Table 1 configuration for the given number of
// hardware contexts.
func Default(contexts int) Config {
	return Config{
		GshareEntries:  8192,
		BimodalEntries: 2048,
		MetaEntries:    8192,
		BTBSets:        2048 / 4,
		BTBWays:        4,
		RASEntries:     64,
		Contexts:       contexts,
	}
}

type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint32
	valid  bool
}

// Predictor is the hybrid gshare/bimodal predictor with BTB and per-context
// RAS and history.
type Predictor struct {
	cfg     Config
	gshare  []uint8 // 2-bit counters
	bimodal []uint8
	meta    []uint8 // 2-bit chooser: >=2 selects gshare
	btb     []btbEntry
	history []uint64 // per-context global history
	ras     [][]uint64
	rasTop  []int
	lruTick uint32

	// Statistics (monotonic; survive CloneInto).
	Lookups     uint64
	Mispredicts uint64
}

// New returns a predictor with all counters initialised to weakly taken.
// It panics unless every indexed table size is a power of two: the
// per-branch indices are masks rather than divisions.
func New(cfg Config) *Predictor {
	for _, n := range []int{cfg.GshareEntries, cfg.BimodalEntries, cfg.MetaEntries, cfg.BTBSets} {
		if n < 1 || n&(n-1) != 0 {
			panic(fmt.Sprintf("bpred: table of %d entries is not a power of two", n))
		}
	}
	p := &Predictor{
		cfg:     cfg,
		gshare:  make([]uint8, cfg.GshareEntries),
		bimodal: make([]uint8, cfg.BimodalEntries),
		meta:    make([]uint8, cfg.MetaEntries),
		btb:     make([]btbEntry, cfg.BTBSets*cfg.BTBWays),
		history: make([]uint64, cfg.Contexts),
		ras:     make([][]uint64, cfg.Contexts),
		rasTop:  make([]int, cfg.Contexts),
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.meta {
		p.meta[i] = 2
	}
	for i := range p.ras {
		p.ras[i] = make([]uint64, cfg.RASEntries)
	}
	return p
}

// CloneInto overwrites dst with a deep copy of p for checkpointing,
// reusing dst's tables, and returns dst. A nil dst allocates a new copy.
func (p *Predictor) CloneInto(dst *Predictor) *Predictor {
	if dst == nil {
		dst = new(Predictor)
	}
	gshare, bimodal, meta, btb, history, rasTop, ras := dst.gshare, dst.bimodal, dst.meta, dst.btb, dst.history, dst.rasTop, dst.ras
	*dst = *p
	dst.gshare = append(gshare[:0], p.gshare...)
	dst.bimodal = append(bimodal[:0], p.bimodal...)
	dst.meta = append(meta[:0], p.meta...)
	dst.btb = append(btb[:0], p.btb...)
	dst.history = append(history[:0], p.history...)
	dst.rasTop = append(rasTop[:0], p.rasTop...)
	dst.ras = slices.Grow(ras[:0], len(p.ras))[:len(p.ras)]
	for i := range p.ras {
		dst.ras[i] = append(dst.ras[i][:0], p.ras[i]...)
	}
	return dst
}

func (p *Predictor) gshareIndex(ctx int, pc uint64) int {
	return int((pc>>2)^p.history[ctx]) & (p.cfg.GshareEntries - 1)
}

func (p *Predictor) bimodalIndex(pc uint64) int {
	return int(pc>>2) & (p.cfg.BimodalEntries - 1)
}

func (p *Predictor) metaIndex(pc uint64) int {
	return int(pc>>2) & (p.cfg.MetaEntries - 1)
}

// Predict returns the predicted direction for a conditional branch at pc
// executed by hardware context ctx. It does not update any state.
func (p *Predictor) Predict(ctx int, pc uint64) bool {
	g := p.gshare[p.gshareIndex(ctx, pc)] >= 2
	b := p.bimodal[p.bimodalIndex(pc)] >= 2
	if p.meta[p.metaIndex(pc)] >= 2 {
		return g
	}
	return b
}

func bump(c *uint8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Update trains the predictor with the resolved outcome of a conditional
// branch and reports whether the pre-update prediction was wrong.
// The caller passes the same (ctx, pc) it predicted with; Update also
// advances the context's global history.
func (p *Predictor) Update(ctx int, pc uint64, taken bool) (mispredicted bool) {
	gi := p.gshareIndex(ctx, pc)
	bi := p.bimodalIndex(pc)
	mi := p.metaIndex(pc)
	g := p.gshare[gi] >= 2
	b := p.bimodal[bi] >= 2
	pred := b
	if p.meta[mi] >= 2 {
		pred = g
	}
	mispredicted = pred != taken

	// Train the chooser toward whichever component was right (only when
	// they disagree).
	if g != b {
		bump(&p.meta[mi], g == taken)
	}
	bump(&p.gshare[gi], taken)
	bump(&p.bimodal[bi], taken)
	p.history[ctx] = (p.history[ctx] << 1) | boolBit(taken)

	p.Lookups++
	if mispredicted {
		p.Mispredicts++
	}
	return mispredicted
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTBLookup returns the predicted target for a taken branch at pc, or
// ok=false on a BTB miss.
func (p *Predictor) BTBLookup(pc uint64) (target uint64, ok bool) {
	set := int(pc>>2) & (p.cfg.BTBSets - 1)
	base := set * p.cfg.BTBWays
	for i := 0; i < p.cfg.BTBWays; i++ {
		e := &p.btb[base+i]
		if e.valid && e.tag == pc {
			p.lruTick++
			e.lru = p.lruTick
			return e.target, true
		}
	}
	return 0, false
}

// BTBUpdate installs or refreshes the target for the branch at pc,
// evicting the least recently used way on a conflict.
func (p *Predictor) BTBUpdate(pc, target uint64) {
	set := int(pc>>2) & (p.cfg.BTBSets - 1)
	base := set * p.cfg.BTBWays
	victim := base
	for i := 0; i < p.cfg.BTBWays; i++ {
		e := &p.btb[base+i]
		if e.valid && e.tag == pc {
			victim = base + i
			break
		}
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < p.btb[victim].lru {
			victim = base + i
		}
	}
	p.lruTick++
	p.btb[victim] = btbEntry{tag: pc, target: target, lru: p.lruTick, valid: true}
}

// Push records a call's return address on context ctx's RAS.
func (p *Predictor) Push(ctx int, ret uint64) {
	top := &p.rasTop[ctx]
	p.ras[ctx][*top] = ret
	*top = (*top + 1) % p.cfg.RASEntries
}

// Pop predicts a return target from context ctx's RAS.
func (p *Predictor) Pop(ctx int) uint64 {
	top := &p.rasTop[ctx]
	*top = (*top - 1 + p.cfg.RASEntries) % p.cfg.RASEntries
	return p.ras[ctx][*top]
}

// MispredictRate returns the fraction of updated branches that were
// mispredicted, or 0 before any update.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}
