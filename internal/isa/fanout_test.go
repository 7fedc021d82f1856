package isa

import (
	"testing"
)

// countStream is a deterministic finite test stream: instruction i has
// Seq i+1 and PC 8*i. It counts Next calls so tests can prove production
// happened once, not once per reader.
type countStream struct {
	n     uint64
	limit uint64
	calls int
}

func (c *countStream) Next(out *Inst) bool {
	c.calls++
	if c.n >= c.limit {
		return false
	}
	*out = Inst{Seq: c.n + 1, PC: 8 * c.n, Class: IntAlu, Dest: int8(c.n % 31)}
	c.n++
	return true
}

func (c *countStream) CloneStream(Stream) Stream {
	cp := *c
	return &cp
}

func TestFanoutReadersSeeIdenticalContent(t *testing.T) {
	src := &countStream{limit: 1000}
	ref := src.CloneStream(nil)
	f := NewFanout(src)

	r0 := f.Origin()
	r1 := r0.CloneStream(nil).(*FanoutReader)
	r2 := r0.CloneStream(nil).(*FanoutReader)
	readers := []*FanoutReader{r0, r1, r2}

	// Advance the readers with skewed interleaving: r0 leads, r1 lags by
	// up to 7, r2 crawls one per round — divergent timing, same content.
	var got [3][]Inst
	for step := 0; ; step++ {
		var in Inst
		advanced := false
		for k, n := range []int{3, 2, 1} {
			for i := 0; i < n; i++ {
				if readers[k].Next(&in) {
					got[k] = append(got[k], in)
					advanced = true
				}
			}
		}
		if !advanced {
			break
		}
	}

	var want []Inst
	var in Inst
	for ref.Next(&in) {
		want = append(want, in)
	}
	for k := range got {
		if len(got[k]) != len(want) {
			t.Fatalf("reader %d consumed %d insts, want %d", k, len(got[k]), len(want))
		}
		for i := range want {
			if got[k][i] != want[i] {
				t.Fatalf("reader %d inst %d = %+v, want %+v", k, i, got[k][i], want[i])
			}
		}
	}
	// Production happened once per instruction (+1 for the exhausting
	// call), not once per reader.
	if src.calls != int(src.limit)+1 {
		t.Fatalf("source Next called %d times, want %d (shared decode)", src.calls, src.limit+1)
	}
}

func TestFanoutTrimBoundsWindow(t *testing.T) {
	src := &countStream{limit: 100000}
	f := NewFanout(src)
	r := f.Origin()

	var in Inst
	for chunk := 0; chunk < 50; chunk++ {
		for i := 0; i < 100; i++ {
			if !r.Next(&in) {
				t.Fatal("unexpected exhaustion")
			}
		}
		f.TrimTo(r.Pos())
		if f.Retained() != 0 {
			t.Fatalf("after full trim, %d insts retained", f.Retained())
		}
	}
	if f.Frontier() != r.Pos() {
		t.Fatalf("frontier %d, reader pos %d", f.Frontier(), r.Pos())
	}

	// A reader left behind the trim point must fail loudly, not silently
	// read wrong content.
	stale := &FanoutReader{f: f, pos: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("stale reader read below the trimmed window without panicking")
		}
	}()
	stale.Next(&in)
}

func TestFanoutCloneStreamRetargets(t *testing.T) {
	fa := NewFanout(&countStream{limit: 10})
	fb := NewFanout(&countStream{limit: 10})
	ra := fa.Origin()
	rb := fb.Origin()
	var in Inst
	ra.Next(&in)
	ra.Next(&in)

	// A reader dst is reused in place and retargeted to ra's fan-out.
	if got := ra.CloneStream(rb); got != Stream(rb) {
		t.Fatalf("CloneStream(reader) = %p, want the reused dst %p", got, rb)
	}
	if rb.Fanout() != fa || rb.Pos() != ra.Pos() {
		t.Fatalf("retargeted reader at (%p,%d), want (%p,%d)", rb.Fanout(), rb.Pos(), fa, ra.Pos())
	}
	// Any other dst is ignored: a new reader of the same fan-out.
	other := &countStream{}
	got, ok := ra.CloneStream(other).(*FanoutReader)
	if !ok || got == ra || got == rb {
		t.Fatalf("CloneStream(non-reader) = %T %p, want a new *FanoutReader", got, got)
	}
	if got.Fanout() != fa || got.Pos() != ra.Pos() || other.n != 0 {
		t.Fatalf("new reader at (%p,%d), want (%p,%d)", got.Fanout(), got.Pos(), fa, ra.Pos())
	}
}

func TestFanoutFreezeForbidsFill(t *testing.T) {
	f := NewFanout(&countStream{limit: 1000})
	r := f.Origin()
	f.Ensure(64)
	if f.Retained() != 64 {
		t.Fatalf("Ensure(64) retained %d", f.Retained())
	}
	f.Freeze(true)
	var in Inst
	for i := 0; i < 64; i++ {
		if !r.Next(&in) {
			t.Fatalf("frozen read %d inside pre-filled window failed", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("read past the pre-filled window of a frozen fanout must panic")
			}
		}()
		r.Next(&in)
	}()
	f.Freeze(false)
	if !r.Next(&in) {
		t.Fatal("thawed fanout failed to fill")
	}
}

func TestFanoutExhaustion(t *testing.T) {
	f := NewFanout(&countStream{limit: 5})
	r := f.Origin()
	r2 := r.CloneStream(nil).(*FanoutReader)
	var in Inst
	n := 0
	for r.Next(&in) {
		n++
	}
	if n != 5 || !f.Exhausted() {
		t.Fatalf("leader consumed %d (exhausted=%v), want 5", n, f.Exhausted())
	}
	// The trailing reader still drains the full retained tail.
	n = 0
	for r2.Next(&in) {
		n++
	}
	if n != 5 {
		t.Fatalf("trailer consumed %d, want 5", n)
	}
}

func TestFanoutSteadyStateDoesNotAllocate(t *testing.T) {
	f := NewFanout(&countStream{limit: 1 << 30})
	r := f.Origin()
	var in Inst
	// Reach the high-water window size once.
	for i := 0; i < 4096; i++ {
		r.Next(&in)
	}
	f.TrimTo(r.Pos())
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 4096; i++ {
			r.Next(&in)
		}
		f.TrimTo(r.Pos())
	})
	if allocs != 0 {
		t.Fatalf("steady-state fill/trim allocates %.1f per round, want 0", allocs)
	}
}
