package pipeline

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smthill/internal/isa"
)

// updateGolden regenerates the wakeup golden traces in testdata. Run
//
//	go test ./internal/pipeline -run TestWakeupGolden -update-wakeup
//
// ONLY against a pipeline whose issue behaviour is known-good: the golden
// files pin the exact per-cycle issue/commit timing that the
// dependency-driven wakeup refactor must preserve.
var updateGolden = flag.Bool("update-wakeup", false, "rewrite wakeup golden traces")

// scriptStream replays a fixed instruction slice; it implements
// isa.Stream so directed dependency fixtures can drive the machine.
type scriptStream struct {
	insts []isa.Inst
	pos   int
}

func (s *scriptStream) Next(out *isa.Inst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*out = s.insts[s.pos]
	s.pos++
	return true
}

func (s *scriptStream) CloneStream(isa.Stream) isa.Stream {
	c := *s
	return &c
}

// fixtureBuilder assembles a directed-dependency instruction sequence
// with explicit producer→consumer edges.
type fixtureBuilder struct {
	insts []isa.Inst
	seq   uint64
	pc    uint64
}

func (b *fixtureBuilder) add(in isa.Inst) {
	in.Seq = b.seq
	in.PC = b.pc
	in.BB = uint16(b.pc >> 5)
	b.seq++
	b.pc += 4
	b.insts = append(b.insts, in)
}

func (b *fixtureBuilder) alu(dest, src1, src2 int8) {
	b.add(isa.Inst{Class: isa.IntAlu, Dest: dest, Src1: src1, Src2: src2})
}

func (b *fixtureBuilder) mul(dest, src1, src2 int8) {
	b.add(isa.Inst{Class: isa.IntMul, Dest: dest, Src1: src1, Src2: src2})
}

func (b *fixtureBuilder) load(dest, addrSrc int8, addr uint64) {
	b.add(isa.Inst{Class: isa.Load, Dest: dest, Src1: addrSrc, Addr: addr})
}

func (b *fixtureBuilder) store(addrSrc, dataSrc int8, addr uint64) {
	b.add(isa.Inst{Class: isa.Store, Src1: addrSrc, Src2: dataSrc, Addr: addr, Dest: isa.NoReg})
}

func (b *fixtureBuilder) branch(taken bool, target uint64) {
	b.add(isa.Inst{Class: isa.Branch, Taken: taken, Target: target, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg})
}

// chainFixture: serial producer→consumer chains of varying length
// interleaved with independent work, so issue must respect both true
// dependences and oldest-first priority under FU contention.
func chainFixture(n int) []isa.Inst {
	b := &fixtureBuilder{}
	b.alu(1, isa.NoReg, isa.NoReg) // seed r1
	for len(b.insts) < n {
		// A long serial chain through r1 (multiplies stretch the chain
		// latency so consumers camp in the window).
		for i := 0; i < 6; i++ {
			if i%3 == 0 {
				b.mul(1, 1, isa.NoReg)
			} else {
				b.alu(1, 1, isa.NoReg)
			}
		}
		// Independent two-operand work competing for ALUs.
		for i := int8(2); i < 8; i++ {
			b.alu(i, isa.NoReg, isa.NoReg)
			b.alu(i, i, 1) // joins the chain value
		}
	}
	return b.insts
}

// l2missFixture: pointer-chase-style loads guaranteed to miss in the L2
// (fresh 64-byte blocks across a 64MB region), each followed by
// consumers that must wait for the miss, plus stores carrying data
// dependences. Several independent chains keep multiple misses in
// flight, so wakeups arrive long after dispatch and out of dispatch
// order.
func l2missFixture(n int) []isa.Inst {
	b := &fixtureBuilder{}
	const region = uint64(0x4000_0000) // beyond any cached set reuse
	var addr [4]uint64
	for i := range addr {
		addr[i] = region + uint64(i)*(16<<20)
	}
	for c := int8(0); len(b.insts) < n; c = (c + 1) % 4 {
		r := int8(10 + c)
		addr[c] += 64 // new block every time: always misses
		b.load(r, isa.NoReg, addr[c])
		b.alu(r, r, isa.NoReg)    // waits on the miss
		b.alu(20+c, r, isa.NoReg) // second-level consumer
		b.store(isa.NoReg, 20+c, addr[c]+8)
		b.alu(2, isa.NoReg, isa.NoReg) // independent filler
	}
	return b.insts
}

// squashFixture mixes chains, missing loads, and biased branches; the
// test driver injects FlushAfter calls mid-execution so squashes land
// while wakeups are pending.
func squashFixture(n int) []isa.Inst {
	b := &fixtureBuilder{}
	const region = uint64(0x5000_0000)
	addr := region
	i := 0
	for len(b.insts) < n {
		addr += 64
		b.load(4, isa.NoReg, addr)
		b.mul(5, 4, isa.NoReg)
		b.alu(6, 5, 4)
		b.branch(i%3 == 0, b.pc+64)
		b.alu(7, 6, isa.NoReg)
		b.store(isa.NoReg, 7, addr+8)
		i++
	}
	return b.insts
}

// traceHash folds the machine's full architectural timing state for the
// cycle into h: per-thread stage counters plus every live ROB entry's
// sequence number and status flags. Any change to issue order, wakeup
// timing, or squash behaviour perturbs it.
func traceHash(m *Machine) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(m.now)
	for th := range m.threads {
		t := &m.threads[th]
		put(t.stats.Fetched)
		put(t.stats.Dispatched)
		put(t.stats.Issued)
		put(t.stats.Committed)
		put(t.stats.Flushed)
		put(t.stats.Mispredicts)
		put(uint64(t.outstandingL2))
		put(uint64(t.outstandingDMiss))
		for _, r := range t.liveROB() {
			e := m.get(r)
			if e == nil {
				panic("wakeup_test: stale ROB ref")
			}
			flags := uint64(0)
			if e.issued {
				flags |= 1
			}
			if e.done {
				flags |= 2
			}
			if e.dmiss {
				flags |= 4
			}
			if e.l2miss {
				flags |= 8
			}
			put(e.inst.Seq<<4 | flags)
		}
	}
	return h.Sum64()
}

// wakeupScenario is one golden-trace run.
type wakeupScenario struct {
	name    string
	streams func() []isa.Stream
	cycles  int
	// flushEvery, when non-zero, injects FlushAfter(0, committed+keep)
	// on thread 0 every flushEvery cycles (squash-mid-wakeup coverage).
	flushEvery int
	keep       uint64
}

func wakeupScenarios() []wakeupScenario {
	return []wakeupScenario{
		{
			name: "chain",
			streams: func() []isa.Stream {
				return []isa.Stream{
					&scriptStream{insts: chainFixture(4000)},
					&scriptStream{insts: chainFixture(4000)},
				}
			},
			cycles: 3000,
		},
		{
			name: "l2miss",
			streams: func() []isa.Stream {
				return []isa.Stream{
					&scriptStream{insts: l2missFixture(3000)},
					&scriptStream{insts: chainFixture(3000)},
				}
			},
			cycles: 5000,
		},
		{
			name: "squash",
			streams: func() []isa.Stream {
				return []isa.Stream{
					&scriptStream{insts: squashFixture(3000)},
					&scriptStream{insts: l2missFixture(3000)},
				}
			},
			cycles:     5000,
			flushEvery: 257,
			keep:       3,
		},
	}
}

// runWakeupTrace executes a scenario and renders its golden trace: a
// sampled per-cycle hash stream, a cumulative hash over every cycle, and
// the final per-thread counters.
func runWakeupTrace(s wakeupScenario) []string {
	m := New(DefaultConfig(2), s.streams(), nil)
	cum := fnv.New64a()
	var lines []string
	var buf [8]byte
	for c := 0; c < s.cycles; c++ {
		if s.flushEvery > 0 && c > 0 && c%s.flushEvery == 0 {
			cut := m.Committed(0) + s.keep
			m.FlushAfter(0, cut)
		}
		m.Cycle()
		h := traceHash(m)
		for i := 0; i < 8; i++ {
			buf[i] = byte(h >> (8 * i))
		}
		cum.Write(buf[:])
		if c < 512 || c%64 == 0 {
			lines = append(lines, fmt.Sprintf("cycle %d hash %016x", c, h))
		}
	}
	lines = append(lines, fmt.Sprintf("cumulative %016x", cum.Sum64()))
	for th := 0; th < m.Threads(); th++ {
		st := m.ThreadStats(th)
		lines = append(lines, fmt.Sprintf(
			"final th%d fetched %d dispatched %d issued %d committed %d flushes %d flushed %d mispredicts %d",
			th, st.Fetched, st.Dispatched, st.Issued, st.Committed, st.Flushes, st.Flushed, st.Mispredicts))
	}
	return lines
}

// TestWakeupGolden pins the exact cycle-by-cycle issue and commit timing
// of directed dependency fixtures (serial chains, loads with pending L2
// misses, squash-mid-wakeup via FlushAfter) against golden traces in
// testdata. The dependency-driven wakeup path must reproduce the
// age-ordered issue priority of the original window scan bit-for-bit.
func TestWakeupGolden(t *testing.T) {
	for _, s := range wakeupScenarios() {
		t.Run(s.name, func(t *testing.T) {
			got := runWakeupTrace(s)
			path := filepath.Join("testdata", "wakeup_"+s.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d lines)", path, len(got))
				return
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-wakeup against a known-good pipeline): %v", err)
			}
			defer f.Close()
			var want []string
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				want = append(want, sc.Text())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trace length %d, golden %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace diverges at line %d:\n  got  %s\n  want %s", i+1, got[i], want[i])
				}
			}
		})
	}
}

// TestWakeupGoldenInvariants reruns the squash scenario (the one that
// exercises every wakeup transition) with per-cycle invariant checking
// enabled; any conservation or bookkeeping slip panics.
func TestWakeupGoldenInvariants(t *testing.T) {
	for _, s := range wakeupScenarios() {
		t.Run(s.name, func(t *testing.T) {
			m := New(DefaultConfig(2), s.streams(), nil)
			m.SetInvariantChecks(true)
			for c := 0; c < s.cycles; c++ {
				if s.flushEvery > 0 && c > 0 && c%s.flushEvery == 0 {
					m.FlushAfter(0, m.Committed(0)+s.keep)
				}
				m.Cycle()
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
