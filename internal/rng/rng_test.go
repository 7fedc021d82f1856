package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestCopyReplays(t *testing.T) {
	a := New(7)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	b := a // value copy is a checkpoint
	var fromA, fromB [64]uint64
	for i := range fromA {
		fromA[i] = a.Uint64()
	}
	for i := range fromB {
		fromB[i] = b.Uint64()
	}
	if fromA != fromB {
		t.Fatal("copied generator did not replay the original sequence")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r := New(1)
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of %d uniform draws = %f, want ~0.5", n, mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate = %f", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	for _, m := range []float64{1, 2, 5, 20} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Geometric(m)
		}
		mean := float64(sum) / n
		if m == 1 {
			if mean != 1 {
				t.Fatalf("Geometric(1) mean = %f, want exactly 1", mean)
			}
			continue
		}
		if mean < 0.85*m || mean > 1.15*m {
			t.Fatalf("Geometric(%f) mean = %f", m, mean)
		}
	}
}

func TestGeometricBounded(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if g := r.Geometric(4); g > 64 {
			t.Fatalf("Geometric(4) = %d exceeds 16*m bound", g)
		}
	}
}

func TestZeroStateGuard(t *testing.T) {
	// Whatever the seed, the internal state must be nonzero so the
	// generator does not get stuck emitting a constant.
	for seed := uint64(0); seed < 64; seed++ {
		r := New(seed)
		a, b := r.Uint64(), r.Uint64()
		if a == 0 && b == 0 {
			t.Fatalf("seed %d produced a stuck generator", seed)
		}
	}
}

// TestBelowMatchesFloat64 pins the integer draw compare to the float
// one it replaces: for every probability, including values a hair
// either side of a representable cut, Below(Threshold(p)) must agree
// with Float64() < p on every draw of the same sequence, and at the
// cut itself.
func TestBelowMatchesFloat64(t *testing.T) {
	ps := []float64{0, 0.25, 0.5, 1, math.NaN(), -0.5, 1.5, 0.55, 0.8, 1.0 / 3,
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
	for _, k := range []float64{1, 3, 1 << 20, 1<<53 - 1} {
		at := k / (1 << 53)
		ps = append(ps, at, math.Nextafter(at, 0), math.Nextafter(at, 1))
	}
	for _, p := range ps {
		cut := Threshold(p)
		// At the boundary: the integer draws either side of the cut.
		for _, u := range []uint64{cut - 1, cut, cut + 1} {
			if u >= 1<<53 {
				continue
			}
			if got, want := u < cut, float64(u)/(1<<53) < p; got != want {
				t.Fatalf("p=%v: draw %d below cut %d = %v, float compare says %v", p, u, cut, got, want)
			}
		}
		// Draw for draw on a live sequence.
		a, b := New(7), New(7)
		for i := 0; i < 10_000; i++ {
			if got, want := a.Below(cut), b.Float64() < p; got != want {
				t.Fatalf("p=%v: draw %d: Below = %v, Float64() < p = %v", p, i, got, want)
			}
		}
	}
}
