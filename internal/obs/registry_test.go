package obs

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegistryValidationPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "invalid metric name", func() { r.Counter("has-dash", "") })
	mustPanic(t, "leading digit", func() { r.Counter("9lives", "") })
	mustPanic(t, "empty name", func() { r.Counter("", "") })
	mustPanic(t, "space in name", func() { r.HistVec("latency ms", "", "route") })
	mustPanic(t, "invalid label", func() { r.CounterVec("ok_name", "", "bad-label") })
	r.Counter("dup_total", "")
	mustPanic(t, "duplicate registration", func() { r.Gauge("dup_total", "") })
	v := r.CounterVec("labeled_total", "", "a", "b")
	mustPanic(t, "wrong label arity", func() { v.With("only-one") })
}

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_jobs_total", "sorted last by name")
	c.Add(7)
	g := r.Gauge("aa_depth", "sorted first")
	g.Set(0.5)
	v := r.CounterVec("mm_requests_total", "labeled", "route", "status")
	v.With("GET /v1/jobs", "200").Add(3)
	v.With("other", "404").Inc()
	r.GaugeFunc("ff_uptime", "func gauge", func() float64 { return 3 })

	var b strings.Builder
	r.Write(&b)
	want := `aa_depth 0.5
ff_uptime 3
mm_requests_total{route="GET /v1/jobs",status="200"} 3
mm_requests_total{route="other",status="404"} 1
zz_jobs_total 7
`
	if b.String() != want {
		t.Errorf("rendered exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	// Equal state renders equal bytes.
	var b2 strings.Builder
	r.Write(&b2)
	if b.String() != b2.String() {
		t.Error("two scrapes of unchanged state differ")
	}
}

func TestRegistryHistRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("lat_ms", "latency")
	h.Observe(0) // bucket 0
	h.Observe(3) // bucket 2 ([2,4))
	var b strings.Builder
	r.Write(&b)
	out := b.String()
	for _, want := range []string{
		`lat_ms_bucket{le="0"} 1`, // cumulative: just the zero sample
		`lat_ms_bucket{le="1"} 1`, // still 1: the 3 lands above
		`lat_ms_bucket{le="3"} 2`, // [2,4) bucket includes it
		`lat_ms_bucket{le="+Inf"} 2`,
		`lat_ms_sum 3`,
		`lat_ms_count 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryAttachMergesSorted(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("mm_parent_total", "").Inc()
	sub := NewRegistry()
	sub.Counter("aa_sub_total", "").Add(2)
	parent.Attach(sub)
	parent.Attach(nil)    // no-op
	parent.Attach(parent) // self-attach ignored

	var b strings.Builder
	parent.Write(&b)
	want := "aa_sub_total 2\nmm_parent_total 1\n"
	if b.String() != want {
		t.Errorf("attached exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	// The sub-registry still renders alone.
	var sb strings.Builder
	sub.Write(&sb)
	if sb.String() != "aa_sub_total 2\n" {
		t.Errorf("sub-registry alone rendered:\n%s", sb.String())
	}
}

func TestRegistryAttachRejectsCollision(t *testing.T) {
	// The same name in two sibling subs.
	parent := NewRegistry()
	a, b := NewRegistry(), NewRegistry()
	a.Counter("jobs_total", "")
	b.Gauge("jobs_total", "")
	parent.Attach(a)
	mustPanic(t, "sibling collision", func() { parent.Attach(b) })

	// The same name in the parent and a sub, found through the sub's
	// own sub.
	parent = NewRegistry()
	parent.Counter("depth", "")
	sub, leaf := NewRegistry(), NewRegistry()
	leaf.Gauge("depth", "")
	sub.Attach(leaf)
	mustPanic(t, "parent/sub collision", func() { parent.Attach(sub) })

	// A rejected sub is not attached: the parent renders only its own.
	var out strings.Builder
	parent.Write(&out)
	if out.String() != "depth 0\n" {
		t.Errorf("exposition after a rejected Attach:\n%s", out.String())
	}
}

func TestFormatMetricValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-2, "-2"},
		{0.5, "0.5"},
		{1.25, "1.25"},
	}
	for _, c := range cases {
		if got := formatMetricValue(c.v); got != c.want {
			t.Errorf("formatMetricValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
