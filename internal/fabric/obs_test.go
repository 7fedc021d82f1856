package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// startTracedWorker is startTestWorker plus a per-node tracer.
func startTracedWorker(t *testing.T, id, coordURL string, tracer *obs.Tracer) *testNode {
	t.Helper()
	wp := new(atomic.Pointer[Worker])
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w := wp.Load(); w != nil {
			w.Handler().ServeHTTP(rw, r)
			return
		}
		http.Error(rw, "worker not ready", http.StatusServiceUnavailable)
	}))
	eng := sweep.NewEngine(2)
	store := NewStoreClient(coordURL, NewMemStore(), nil)
	eng.SetBackend(store)
	w := NewWorker(WorkerConfig{
		ID: id, CoordinatorURL: coordURL, AdvertiseURL: srv.URL,
		HeartbeatEvery: 25 * time.Millisecond, Logf: t.Logf, Tracer: tracer,
	}, eng, store)
	wp.Store(w)
	ctx, cancel := context.WithCancel(context.Background())
	w.Start(ctx)
	n := &testNode{id: id, w: w, srv: srv, cancel: cancel}
	t.Cleanup(n.kill)
	return n
}

// clusterMetrics renders the coordinator's federated exposition.
func clusterMetrics(t *testing.T, coord *Coordinator) string {
	t.Helper()
	rec := httptest.NewRecorder()
	coord.HandleClusterMetrics(rec, httptest.NewRequest("GET", "/metrics/cluster", nil))
	return rec.Body.String()
}

// waitClusterContains polls /metrics/cluster until every want substring
// appears (federation scrapes ride the heartbeat cadence).
func waitClusterContains(t *testing.T, coord *Coordinator, wants ...string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var out string
	for time.Now().Before(deadline) {
		out = clusterMetrics(t, coord)
		ok := true
		for _, w := range wants {
			if !strings.Contains(out, w) {
				ok = false
				break
			}
		}
		if ok {
			return out
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster exposition never contained %q:\n%s", wants, out)
	return ""
}

// TestObsSmoke is the CI observability smoke (make obs-smoke): an
// in-process coordinator and two traced workers run a traced fig4
// sweep; one trace ID must span submit-side dispatch, remote worker
// compute, and store write-back across at least two nodes, and the
// coordinator's /metrics/cluster must federate every live worker's
// series, marking a killed worker stale.
func TestObsSmoke(t *testing.T) {
	cfg := fabricCfg()

	coordTracer := obs.NewTracer(obs.TracerConfig{Node: "coord", SampleN: 1})
	coord := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: 500 * time.Millisecond,
		ScrapeInterval:   25 * time.Millisecond,
		Tracer:           coordTracer,
		Logf:             t.Logf,
	})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	eng := sweep.NewEngine(2)
	eng.SetBackend(coord.Backend())
	eng.SetRemote(coord)
	experiment.SetEngine(eng)
	t.Cleanup(func() { experiment.SetEngine(sweep.NewEngine(0)) })

	startTracedWorker(t, "w1", srv.URL, obs.NewTracer(obs.TracerConfig{Node: "w1", SampleN: 1}))
	w2 := startTracedWorker(t, "w2", srv.URL, obs.NewTracer(obs.TracerConfig{Node: "w2", SampleN: 1}))
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
	for _, d := range spans {
		names[d.Name] = true
		nodes[d.Node] = true
	}
	for _, want := range []string{"POST /v1/experiments", "sweep.exec", "fabric.dispatch", "fabric.exec", "store.put"} {
		if !names[want] {
			t.Errorf("trace %s has no %q span (got %v)", traceID, want, names)
		}
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

	// Federation: both workers' series appear node-labeled, live nodes
	// are up, and an aggregate row sums across them.
	out := waitClusterContains(t, coord,
		`smtserved_cluster_node_up{node="w1"} 1`,
		`smtserved_cluster_node_up{node="w2"} 1`,
		`smtserved_fabric_exec_served_total{node="w1",outcome="ok"}`,
		`smtserved_fabric_exec_served_total{node="w2",outcome="ok"}`,
		`smtserved_fabric_exec_served_total{outcome="ok"}`,
	)
	if !strings.Contains(out, `smtserved_cluster_node_stale{node="w1"} 0`) {
		t.Errorf("fresh worker rendered stale:\n%s", out)
	}
	if h := coord.Health(); h["cluster_nodes_fresh"] != 2 {
		t.Errorf("healthz cluster summary: %+v", h)
	}

	// Kill one worker; past the heartbeat timeout it must render stale
	// and drop out of the aggregates.
	w2.kill()
	waitClusterContains(t, coord,
		`smtserved_cluster_node_up{node="w2"} 0`,
		`smtserved_cluster_node_stale{node="w2"} 1`,
	)
	out = clusterMetrics(t, coord)
	if strings.Contains(out, `smtserved_fabric_exec_served_total{node="w2"`) {
		t.Errorf("dead worker's series still federated:\n%s", out)
	}
}
