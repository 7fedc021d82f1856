// Shared last-level cache for the multi-core system. Private per-core
// hierarchies (IL1/DL1/UL2) stay exactly as in the single-core model;
// when a UL2 miss occurs on a core whose hierarchy has an attached
// SharedL3, the miss is serviced through the L3 instead of going
// straight to memory. The model is deliberately MESI-free: cores never
// share lines coherently (workloads have disjoint address bases), so
// the L3 models *capacity* and *bandwidth* interference only —
// occupancy per core, cross-core evictions, and a ports/queue model
// that delays bursts of same-cycle misses from different cores.
package cache

// L3Config sizes the shared last-level cache and its contention model.
type L3Config struct {
	Config
	// Ports is how many L3 accesses complete at base latency per cycle;
	// accesses beyond that queue.
	Ports int
	// QueueDelay is the extra latency per queued position past Ports.
	QueueDelay int
	// MemFirst is the critical-word latency charged on an L3 miss.
	MemFirst int
}

// DefaultL3 returns the default shared L3: 4MB 8-way, 40-cycle hit,
// 2 ports with a 4-cycle queue penalty, 300-cycle memory.
func DefaultL3() L3Config {
	return L3Config{
		Config:     Config{SizeBytes: 4 << 20, BlockSize: 64, Ways: 8, Latency: 40},
		Ports:      2,
		QueueDelay: 4,
		MemFirst:   300,
	}
}

// SharedL3 is the last-level cache shared by all cores of a multicore
// System. It is accessed only from the System's lock-step cycle loop —
// single-goroutine by construction, so it carries no locks.
type SharedL3 struct {
	cfg     L3Config
	setMask uint64 // sets-1; the set count is a power of two
	shift   uint
	lines   []line
	// owner tracks which core filled each line, for the occupancy and
	// cross-eviction accounting; -1 means invalid.
	owner []int8
	tick  uint32
	// inWindow counts accesses in the current cycle window; Tick resets
	// it. Accesses past cfg.Ports are charged queue delay.
	inWindow int

	Stats Stats
	// perCore holds per-core access/miss stats, occupancy (valid lines
	// currently owned), and evictions of this core's lines by others.
	perCore []CoreL3Stats
}

// CoreL3Stats is one core's view of the shared L3.
type CoreL3Stats struct {
	Stats
	// Occupancy is the number of valid L3 lines this core currently owns.
	Occupancy int
	// EvictedByOthers counts this core's lines evicted by another
	// core's fills — the capacity-interference signal.
	EvictedByOthers uint64
	// Queued counts accesses that paid bandwidth queue delay.
	Queued uint64
}

// NewSharedL3 builds the shared level for the given number of cores.
func NewSharedL3(cfg L3Config, cores int) *SharedL3 {
	mask := cfg.setMask()
	shift := uint(0)
	for 1<<shift < cfg.BlockSize {
		shift++
	}
	sets := cfg.Sets()
	l := &SharedL3{
		cfg:     cfg,
		setMask: mask,
		shift:   shift,
		lines:   make([]line, sets*cfg.Ways),
		owner:   make([]int8, sets*cfg.Ways),
		perCore: make([]CoreL3Stats, cores),
	}
	for i := range l.owner {
		l.owner[i] = -1
	}
	return l
}

// Config returns the L3 configuration.
func (l *SharedL3) Config() L3Config { return l.cfg }

// Cores returns the number of cores the L3 was built for.
func (l *SharedL3) Cores() int { return len(l.perCore) }

// Tick opens a new bandwidth window; the System calls it once per
// lock-step cycle before cycling the cores.
func (l *SharedL3) Tick() { l.inWindow = 0 }

// CoreStats returns core c's L3 statistics.
func (l *SharedL3) CoreStats(c int) CoreL3Stats { return l.perCore[c] }

// Occupancy returns the number of valid lines currently owned by core c.
func (l *SharedL3) Occupancy(c int) int { return l.perCore[c].Occupancy }

// Access services a UL2 miss from core c for addr. It returns the extra
// latency beyond the private hierarchy (L3 hit latency, any bandwidth
// queue delay, and memory latency on miss) and whether the L3 hit.
func (l *SharedL3) Access(c int, addr uint64) (extra int, hit bool) {
	pos := l.inWindow
	l.inWindow++
	extra = l.cfg.Latency
	if pos >= l.cfg.Ports {
		extra += (pos - l.cfg.Ports + 1) * l.cfg.QueueDelay
		l.perCore[c].Queued++
	}

	tag := addr >> l.shift
	set := int(tag & l.setMask)
	base := set * l.cfg.Ways
	l.Stats.Accesses++
	l.perCore[c].Accesses++
	l.tick++
	victim := base
	for i := 0; i < l.cfg.Ways; i++ {
		ln := &l.lines[base+i]
		if ln.valid && ln.tag == tag {
			ln.lru = l.tick
			return extra, true
		}
		if !ln.valid {
			victim = base + i
		} else if l.lines[victim].valid && ln.lru < l.lines[victim].lru {
			victim = base + i
		}
	}
	l.Stats.Misses++
	l.perCore[c].Misses++
	if old := l.owner[victim]; old >= 0 && l.lines[victim].valid {
		l.perCore[old].Occupancy--
		if int(old) != c {
			l.perCore[old].EvictedByOthers++
		}
	}
	l.lines[victim] = line{tag: tag, lru: l.tick, valid: true}
	l.owner[victim] = int8(c)
	l.perCore[c].Occupancy++
	return extra + l.cfg.MemFirst, false
}

// Fill installs addr for core c without charging latency (used by the
// write path, where retirement-time stores return no latency).
func (l *SharedL3) Fill(c int, addr uint64) {
	tag := addr >> l.shift
	set := int(tag & l.setMask)
	base := set * l.cfg.Ways
	l.tick++
	victim := base
	for i := 0; i < l.cfg.Ways; i++ {
		ln := &l.lines[base+i]
		if ln.valid && ln.tag == tag {
			ln.lru = l.tick
			return
		}
		if !ln.valid {
			victim = base + i
		} else if l.lines[victim].valid && ln.lru < l.lines[victim].lru {
			victim = base + i
		}
	}
	if old := l.owner[victim]; old >= 0 && l.lines[victim].valid {
		l.perCore[old].Occupancy--
		if int(old) != c {
			l.perCore[old].EvictedByOthers++
		}
	}
	l.lines[victim] = line{tag: tag, lru: l.tick, valid: true}
	l.owner[victim] = int8(c)
	l.perCore[c].Occupancy++
}
