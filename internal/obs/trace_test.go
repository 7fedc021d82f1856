package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		sc := SpanContext{
			Trace:   "0123456789abcdef0123456789abcdef",
			Span:    "0123456789abcdef",
			Sampled: sampled,
		}
		got, ok := ParseTraceparent(sc.Traceparent())
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected a rendered context", sc.Traceparent())
		}
		if got != sc {
			t.Errorf("round trip: got %+v, want %+v", got, sc)
		}
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"not-a-traceparent",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",      // missing flags
		"ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01",   // wrong version
		"00-00000000000000000000000000000000-0123456789abcdef-01",   // all-zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",   // all-zero span
		"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01",   // uppercase hex
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-zz",   // bad flags hex
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-x", // trailing junk
	}
	for _, c := range cases {
		if _, ok := ParseTraceparent(c); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", c)
		}
	}
}

func TestNilTracerAndSpanNoOp(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.StartRoot(context.Background(), "x", KindInternal)
	if span != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every method must be callable on the nil span.
	span.SetAttr("k", "v")
	span.Event("e")
	span.End(nil)
	if sc := span.Context(); sc.Valid() {
		t.Errorf("nil span has a valid context: %+v", sc)
	}
	if tr.Len() != 0 || tr.Spans() != nil || tr.CollectTrace("x") != nil {
		t.Error("nil tracer retains spans")
	}
	tr.Adopt([]SpanData{{Trace: "t", Span: "s"}})

	// Start with no span in ctx: ctx unchanged, nil span.
	ctx2, child := Start(ctx, "child", KindInternal)
	if child != nil || ctx2 != ctx {
		t.Error("Start without a parent span must be a no-op")
	}
}

// TestTracingOffIsInert pins the overhead contract: with no tracer in
// the context, Start mints no span.
func TestTracingOffIsInert(t *testing.T) {
	ctx := context.Background()
	if _, span := Start(ctx, "x", KindInternal); span != nil {
		t.Fatal("tracing enabled without a tracer in context")
	}
}

func TestHeadSamplingKeepsOneInN(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleN: 3})
	kept := 0
	for i := 0; i < 9; i++ {
		_, s := tr.StartRoot(context.Background(), "root", KindInternal)
		s.End(nil)
		if tr.Len() > kept {
			kept = tr.Len()
		}
	}
	if kept != 3 {
		t.Errorf("SampleN=3 kept %d of 9 roots, want 3", kept)
	}
}

func TestErrorSpansAlwaysRecorded(t *testing.T) {
	// SampleN high enough that the second root is unsampled.
	tr := NewTracer(TracerConfig{SampleN: 1000})
	_, s := tr.StartRoot(context.Background(), "first", KindInternal)
	s.End(nil) // sampled: recorded
	_, s2 := tr.StartRoot(context.Background(), "second", KindInternal)
	s2.End(nil) // unsampled, ok: dropped
	_, s3 := tr.StartRoot(context.Background(), "third", KindInternal)
	s3.End(errors.New("boom")) // unsampled but error: recorded
	if tr.Len() != 2 {
		t.Fatalf("retained %d spans, want 2 (sampled + error)", tr.Len())
	}
	spans := tr.Spans()
	if spans[1].Status != StatusError || spans[1].Error != "boom" {
		t.Errorf("error span not retained with status: %+v", spans[1])
	}
}

func TestChildInheritsSamplingAndTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartRoot(context.Background(), "root", KindServer)
	_, child := Start(ctx, "child", KindInternal)
	if child.Context().Trace != root.Context().Trace {
		t.Error("child is in a different trace than its parent")
	}
	child.End(nil)
	root.End(nil)
	got := tr.CollectTrace(root.Context().Trace)
	if len(got) != 2 {
		t.Fatalf("CollectTrace returned %d spans, want 2", len(got))
	}
	if got[0].Span != root.Context().Span || got[1].Parent != root.Context().Span {
		t.Errorf("parent/child linkage broken: %+v", got)
	}
}

// TestRingNeverGrowsPastCapacity is the S1 bound: a pathological run —
// far more completed spans than the ring holds — retains exactly
// RingCapacity spans, newest winning.
func TestRingNeverGrowsPastCapacity(t *testing.T) {
	const capacity = 8
	tr := NewTracer(TracerConfig{RingCapacity: capacity})
	for i := 0; i < 50*capacity; i++ {
		_, s := tr.StartRoot(context.Background(), fmt.Sprintf("op%d", i), KindInternal)
		s.End(nil)
		if tr.Len() > capacity {
			t.Fatalf("ring grew to %d spans (cap %d) after %d records", tr.Len(), capacity, i+1)
		}
	}
	if tr.Len() != capacity {
		t.Fatalf("ring holds %d spans, want %d", tr.Len(), capacity)
	}
	spans := tr.Spans()
	if got := spans[len(spans)-1].Name; got != "op399" {
		t.Errorf("newest retained span is %q, want op399", got)
	}
	if got := spans[0].Name; got != "op392" {
		t.Errorf("oldest retained span is %q, want op392", got)
	}
}

// TestAttrCapsBoundSpanSize is the other half of S1: per-span attribute
// count and byte-size caps hold no matter what instrumentation does.
func TestAttrCapsBoundSpanSize(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxAttrs: 4, MaxAttrLen: 8})
	_, s := tr.StartRoot(context.Background(), "op", KindInternal)
	for i := 0; i < 100; i++ {
		s.SetAttr(fmt.Sprintf("key%d", i), strings.Repeat("v", 1000))
	}
	s.End(nil)
	d := tr.Spans()[0]
	if len(d.Attrs) > 4+1 { // cap plus the attrs_dropped marker
		t.Errorf("span retained %d attrs, cap is 4", len(d.Attrs))
	}
	if d.Attrs["attrs_dropped"] != "true" {
		t.Error("overflow did not set the attrs_dropped marker")
	}
	for k, v := range d.Attrs {
		if k == "attrs_dropped" {
			continue // the overflow marker itself is exempt from clipping
		}
		if len(k) > 8 || len(v) > 8 {
			t.Errorf("attr %q=%q exceeds MaxAttrLen", k, v)
		}
	}
}

func TestEventCapBounds(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxEvents: 3})
	_, s := tr.StartRoot(context.Background(), "op", KindInternal)
	for i := 0; i < 10; i++ {
		s.Event("e", "k", "v")
	}
	s.End(nil)
	if got := len(tr.Spans()[0].Events); got != 3 {
		t.Errorf("span retained %d events, cap is 3", got)
	}
}

func TestAdoptValidatesAndClips(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxAttrs: 2, MaxAttrLen: 4})
	big := map[string]string{"a": "1", "b": "2", "c": "3", "d": "44444444"}
	tr.Adopt([]SpanData{
		{Trace: "bogus", Span: "alsobogus"}, // invalid IDs: dropped
		{
			Trace: "0123456789abcdef0123456789abcdef",
			Span:  "0123456789abcdef",
			Name:  "remote", Attrs: big,
		},
	})
	if tr.Len() != 1 {
		t.Fatalf("adopted %d spans, want 1 (invalid dropped)", tr.Len())
	}
	d := tr.Spans()[0]
	if len(d.Attrs) > 2 {
		t.Errorf("adopted span kept %d attrs, cap is 2", len(d.Attrs))
	}
	for k, v := range d.Attrs {
		if len(k) > 4 || len(v) > 4 {
			t.Errorf("adopted attr %q=%q exceeds MaxAttrLen", k, v)
		}
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, s := tr.StartRoot(context.Background(), "client", KindClient)
	h := make(http.Header)
	Inject(ctx, h)
	got := Extract(h)
	if got != s.Context() {
		t.Errorf("Extract = %+v, want %+v", got, s.Context())
	}
	// No span in ctx: nothing injected; Extract of empty headers invalid.
	h2 := make(http.Header)
	Inject(context.Background(), h2)
	if h2.Get(TraceparentHeader) != "" {
		t.Error("Inject wrote a header with no span in context")
	}
	if Extract(h2).Valid() {
		t.Error("Extract of missing header returned a valid context")
	}
}

func TestStartRemoteFallsBackToFreshRoot(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	_, s := tr.StartRemote(context.Background(), SpanContext{Trace: "junk"}, "op", KindServer)
	if s == nil {
		t.Fatal("StartRemote with invalid parent returned nil span")
	}
	if !validHex(s.Context().Trace, 32) {
		t.Errorf("fresh root has malformed trace ID %q", s.Context().Trace)
	}
	if s.data.Parent != "" {
		t.Errorf("fresh root has a parent: %q", s.data.Parent)
	}
}

func TestStartFromRequiresValidParent(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	if _, s := tr.StartFrom(context.Background(), SpanContext{}, "op", KindInternal); s != nil {
		t.Error("StartFrom with invalid parent minted a span (should be nil: no trace to join)")
	}
	parent := SpanContext{Trace: "0123456789abcdef0123456789abcdef", Span: "0123456789abcdef", Sampled: true}
	_, s := tr.StartFrom(context.Background(), parent, "op", KindInternal)
	if s == nil || s.Context().Trace != parent.Trace {
		t.Error("StartFrom with valid parent did not join the trace")
	}
}

func TestDebugHandler(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartRoot(context.Background(), "serve.job", KindInternal)
	_, child := Start(ctx, "sweep.exec", KindInternal)
	child.End(nil)
	root.End(errors.New("job failed"))
	h := tr.DebugHandler()

	// List view.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Traces []struct {
			Trace  string `json:"trace"`
			Root   string `json:"root"`
			Spans  int    `json:"spans"`
			Errors int    `json:"errors"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list view is not JSON: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Spans != 2 ||
		list.Traces[0].Errors != 1 || list.Traces[0].Root != "serve.job" {
		t.Fatalf("unexpected list view: %+v", list.Traces)
	}

	// Single-trace view.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+list.Traces[0].Trace, nil))
	var one struct {
		Spans []SpanData `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("trace view is not JSON: %v", err)
	}
	if len(one.Spans) != 2 || one.Spans[0].Name != "serve.job" {
		t.Fatalf("unexpected trace view: %+v", one.Spans)
	}

	// Nil tracer: tracing disabled.
	var off *Tracer
	rec = httptest.NewRecorder()
	off.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("nil tracer debug handler returned %d, want 404", rec.Code)
	}
}
