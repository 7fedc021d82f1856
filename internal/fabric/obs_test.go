package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"smthill/internal/experiment"
	"smthill/internal/obs"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
)

// tinyExecSpec is a simulation that completes in milliseconds, for
// exercising the exec hop directly.
func tinyExecSpec() simjob.Spec {
	return simjob.Spec{
		Workload: "art-mcf", Tech: "ICOUNT",
		Epochs: 2, EpochSize: 2048, Warmup: 1,
	}
}

// execOnce posts one exec request to a worker handler with the given
// headers and decodes the response.
func execOnce(t *testing.T, h http.Handler, key string, hdr http.Header) (ExecResponse, int) {
	t.Helper()
	body, _ := json.Marshal(ExecRequest{Version: ProtocolVersion, Key: key})
	req := httptest.NewRequest("POST", "/fabric/v1/exec", bytes.NewReader(body))
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var er ExecResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("exec response not JSON: %v", err)
		}
	}
	return er, rec.Code
}

// TestExecHopTraceRoundTrip drives the worker's exec endpoint through a
// real HTTP exchange: a sampled traceparent must come back as backhauled
// spans in the same trace, and a malformed or missing header must yield
// a fresh root span — never propagated garbage.
func TestExecHopTraceRoundTrip(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Node: "w1", SampleN: 1})
	eng := sweep.NewEngine(1)
	w := NewWorker(WorkerConfig{
		ID: "w1", CoordinatorURL: "http://unused", AdvertiseURL: "http://unused",
		Tracer: tracer,
	}, eng, nil)

	parent := obs.SpanContext{
		Trace:   "0123456789abcdef0123456789abcdef",
		Span:    "0123456789abcdef",
		Sampled: true,
	}
	hdr := make(http.Header)
	hdr.Set(obs.TraceparentHeader, parent.Traceparent())
	er, code := execOnce(t, w.Handler(), tinyExecSpec().Key(), hdr)
	if code != http.StatusOK {
		t.Fatalf("exec returned %d", code)
	}
	if len(er.Spans) == 0 {
		t.Fatal("sampled cross-node exec backhauled no spans")
	}
	names := map[string]bool{}
	for _, d := range er.Spans {
		if d.Trace != parent.Trace {
			t.Errorf("backhauled span %s is in trace %s, want %s", d.Name, d.Trace, parent.Trace)
		}
		if d.Node != "w1" {
			t.Errorf("backhauled span %s lacks the worker node label: %q", d.Name, d.Node)
		}
		names[d.Name] = true
	}
	if !names["fabric.exec"] || !names["sweep.exec"] {
		t.Errorf("backhauled spans missing the exec/compute pair: %v", names)
	}
	// The server span continues the remote parent directly.
	for _, d := range er.Spans {
		if d.Name == "fabric.exec" && d.Parent != parent.Span {
			t.Errorf("fabric.exec parent = %q, want %q", d.Parent, parent.Span)
		}
	}

	// Malformed traceparent: the worker opens a fresh root and backhauls
	// nothing (there is no sampled remote trace to join).
	badHdr := make(http.Header)
	badHdr.Set(obs.TraceparentHeader, "00-garbage-garbage-zz")
	before := tracer.Len()
	er, code = execOnce(t, w.Handler(), tinyExecSpec().Key(), badHdr)
	if code != http.StatusOK {
		t.Fatalf("exec with malformed traceparent returned %d", code)
	}
	if len(er.Spans) != 0 {
		t.Errorf("malformed traceparent backhauled %d spans, want 0", len(er.Spans))
	}
	fresh := tracer.Spans()[before:]
	var root *obs.SpanData
	for i := range fresh {
		if fresh[i].Name == "fabric.exec" {
			root = &fresh[i]
		}
	}
	if root == nil {
		t.Fatal("no fabric.exec span recorded for the malformed-header request")
	}
	if root.Parent != "" {
		t.Errorf("malformed traceparent did not yield a fresh root (parent=%q)", root.Parent)
	}
	if root.Trace == parent.Trace {
		t.Error("malformed traceparent joined the earlier trace")
	}

	// Missing header behaves the same as malformed.
	er, code = execOnce(t, w.Handler(), tinyExecSpec().Key(), nil)
	if code != http.StatusOK || len(er.Spans) != 0 {
		t.Errorf("missing traceparent: code=%d spans=%d, want 200/0", code, len(er.Spans))
	}
}

// TestObsSmoke is the CI observability smoke (make obs-smoke): an
// in-process coordinator and two traced workers run a traced fig4
// sweep; one trace ID must span submit-side dispatch, remote worker
// compute, and the store reads across at least two nodes, every
// dispatch must explain its placement, and /debug/traces must show the
// same trace. The store reads are the singles a worker running an
// OFF-LINE key fetches from the coordinator's store: a client span on
// the worker and a server span on the coordinator.
func TestObsSmoke(t *testing.T) {
	cfg := fabricCfg()

	coordTracer := obs.NewTracer(obs.TracerConfig{Node: "coord", SampleN: 1})
	coord := NewCoordinator(CoordinatorConfig{Tracer: coordTracer, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	eng := sweep.NewEngine(2)
	eng.SetBackend(coord.Backend())
	eng.SetRemote(coord)
	experiment.SetEngine(eng)
	t.Cleanup(func() { experiment.SetEngine(sweep.NewEngine(0)) })

	startTracedWorker(t, "w1", srv.URL, obs.NewTracer(obs.TracerConfig{Node: "w1", SampleN: 1}))
	startTracedWorker(t, "w2", srv.URL, obs.NewTracer(obs.TracerConfig{Node: "w2", SampleN: 1}))
	waitAlive(t, coord, 2)

	// One traced client request covering the whole fig4 sweep.
	ctx, root := coordTracer.StartRoot(context.Background(), "POST /v1/experiments", obs.KindServer)
	experiment.SetContext(ctx)
	t.Cleanup(func() { experiment.SetContext(context.Background()) })
	namedRun(t, cfg, "fig4", experiment.RunOptions{Workloads: "gzip-bzip2,art-mcf"})
	root.End(nil)

	traceID := root.Context().Trace
	spans := coordTracer.CollectTrace(traceID)
	names := map[string]bool{}
	nodes := map[string]bool{}
	var storeGets []string // kind@node of each store.get span
	for _, d := range spans {
		names[d.Name] = true
		nodes[d.Node] = true
		if d.Name == "store.get" {
			storeGets = append(storeGets, d.Kind+"@"+d.Node)
		}
	}
	for _, want := range []string{"POST /v1/experiments", "sweep.exec", "fabric.dispatch", "fabric.exec", "store.get"} {
		if !names[want] {
			t.Errorf("trace %s has no %q span (got %v)", traceID, want, names)
		}
	}
	if names["store.put"] {
		t.Errorf("trace %s has a store.put span; workers must not write the store", traceID)
	}
	if !slices.Contains(storeGets, obs.KindServer+"@coord") ||
		!slices.Contains(storeGets, obs.KindClient+"@w1") && !slices.Contains(storeGets, obs.KindClient+"@w2") {
		t.Errorf("store.get spans %v, want a worker client span and a coordinator server span", storeGets)
	}
	if !nodes["coord"] || (!nodes["w1"] && !nodes["w2"]) {
		t.Errorf("trace does not span coordinator and a worker: nodes=%v", nodes)
	}
	// Every dispatch explains its placement with one pick event per
	// attempt. No worker fails here, so each dispatch is one attempt: a
	// pick naming the worker that answered and its in-flight count.
	for _, d := range spans {
		if d.Name != "fabric.dispatch" {
			continue
		}
		var picks []obs.SpanEvent
		for _, ev := range d.Events {
			if ev.Name == "pick" {
				picks = append(picks, ev)
			}
		}
		if len(picks) != 1 || picks[0].Attrs["worker"] != d.Attrs["worker"] || picks[0].Attrs["inflight"] == "" {
			t.Errorf("dispatch span %s (worker %q) has picks %+v, want one naming its worker and in-flight count",
				d.Span, d.Attrs["worker"], picks)
		}
	}

	// The same trace is visible through the debug endpoint.
	rec := httptest.NewRecorder()
	coordTracer.DebugHandler().ServeHTTP(rec,
		httptest.NewRequest("GET", "/debug/traces?trace="+traceID, nil))
	var dbg struct {
		Spans []obs.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dbg); err != nil {
		t.Fatalf("/debug/traces view not JSON: %v", err)
	}
	if len(dbg.Spans) != len(spans) {
		t.Errorf("/debug/traces shows %d spans, CollectTrace %d", len(dbg.Spans), len(spans))
	}
}
