package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	// ID names this worker in the coordinator's membership (required;
	// usually host:port).
	ID string
	// CoordinatorURL is the coordinator's base URL (required).
	CoordinatorURL string
	// AdvertiseURL is the base URL the coordinator dials back for exec
	// requests (required).
	AdvertiseURL string
	// HeartbeatEvery is the beat interval (default 2s). Keep it well
	// under the coordinator's HeartbeatTimeout.
	HeartbeatEvery time.Duration
	// Client performs control-plane HTTP (default http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
	// Tracer, when set, records a server span per exec request (with
	// engine child spans beneath it) and backhauls the spans
	// of sampled cross-node traces in the exec response for the
	// coordinator to adopt.
	Tracer *obs.Tracer
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker is a fabric execution node: it joins the coordinator by
// heartbeating, and serves /fabric/v1/exec by
// rebuilding jobs from their keys on its local engine through
// experiment.ExecKeyOn, which runs simulation specs and experiment
// families alike; a key it does not recognise is refused (the
// coordinator then computes it locally).
type Worker struct {
	cfg     WorkerConfig
	eng     *sweep.Engine
	handler http.Handler

	inflight atomic.Int64

	reg     *obs.Registry
	execVec *obs.CounterVec // outcome
	hbVec   *obs.CounterVec // outcome
}

// NewWorker builds a worker around an engine. store may be nil; when
// set, it should also be the engine's backend so remote results read
// through it, and its metrics join the worker's registry.
func NewWorker(cfg WorkerConfig, eng *sweep.Engine, store *StoreClient) *Worker {
	reg := obs.NewRegistry()
	w := &Worker{
		cfg: cfg.withDefaults(), eng: eng,
		reg: reg,
		execVec: reg.CounterVec("smtserved_fabric_exec_served_total",
			"exec requests by outcome", "outcome"),
		hbVec: reg.CounterVec("smtserved_fabric_heartbeats_total",
			"heartbeat round-trips by outcome", "outcome"),
	}
	for _, o := range []string{"ok", "error", "unknown"} {
		w.execVec.With(o)
	}
	w.hbVec.With("ok")
	w.hbVec.With("error")
	reg.GaugeFunc("smtserved_fabric_exec_inflight",
		"exec requests currently executing",
		func() float64 { return float64(w.inflight.Load()) })
	if store != nil {
		reg.Attach(store.Registry())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/exec", w.handleExec)
	w.handler = mux
	return w
}

// Handler returns the worker's HTTP surface, POST /fabric/v1/exec. Its
// series render through Registry or WriteMetrics; on an smtserved node
// they join the node's own /metrics.
func (w *Worker) Handler() http.Handler { return w.handler }

// Registry returns the worker's metric registry (exec and heartbeat
// series, plus the store client's when present), for attachment into a
// node-wide one.
func (w *Worker) Registry() *obs.Registry { return w.reg }

// handleExec executes one key and returns the engine's stored bytes.
// Status codes are the dispatch contract: 200 success, 404 unknown key
// family (coordinator computes locally), 422 the key failed to execute
// (deterministic — retrying elsewhere would fail identically), 400
// protocol mismatch.
//
// When the request carries a sampled traceparent, the whole execution
// runs under a server span continuing that trace, and every span this
// worker recorded for the trace rides back in the response for the
// coordinator to adopt.
func (w *Worker) handleExec(rw http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf("bad exec request: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkProtoVersion(req.Version); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Key == "" {
		http.Error(rw, "exec requires key", http.StatusBadRequest)
		return
	}
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	parent := obs.Extract(r.Header)
	ctx, span := w.cfg.Tracer.StartRemote(r.Context(), parent, "fabric.exec", obs.KindServer)
	span.SetAttr("key", req.Key)
	raw, ok, err := experiment.ExecKeyOn(ctx, w.eng, req.Key)
	switch {
	case err != nil:
		w.execVec.With("error").Inc()
		span.SetAttr("outcome", "error")
		span.End(err)
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
	case !ok:
		w.execVec.With("unknown").Inc()
		span.SetAttr("outcome", "unknown")
		span.End(fmt.Errorf("unknown key family: %s", req.Key))
		http.Error(rw, fmt.Sprintf("unknown key family: %s", req.Key), http.StatusNotFound)
	default:
		w.execVec.With("ok").Inc()
		span.SetAttr("outcome", "ok")
		span.End(nil)
		var spans []obs.SpanData
		if parent.Valid() && parent.Sampled {
			spans = w.cfg.Tracer.CollectTrace(parent.Trace)
		}
		writeProtoJSON(rw, ExecResponse{Version: ProtocolVersion, Key: req.Key, Result: raw, Spans: spans})
	}
}

// Start joins the coordinator and then keeps beating until ctx ends.
// The first heartbeat goes out at once and is retried with backoff
// until the coordinator accepts it; later beats follow every
// HeartbeatEvery. Start returns immediately; the control loop runs in a
// goroutine. Exec requests are served whether or not the worker has
// joined — the handler is mounted by the caller.
func (w *Worker) Start(ctx context.Context) {
	go func() {
		backoff := 100 * time.Millisecond
		for {
			err := w.Heartbeat(ctx)
			if err == nil {
				break
			}
			w.cfg.Logf("fabric: join %s: %v (retrying in %s)", w.cfg.CoordinatorURL, err, backoff)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		w.cfg.Logf("fabric: joined %s as %s", w.cfg.CoordinatorURL, w.cfg.ID)
		t := time.NewTicker(w.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := w.Heartbeat(ctx); err != nil {
					w.cfg.Logf("fabric: heartbeat: %v", err)
				}
			}
		}
	}()
}

// Heartbeat performs one liveness beat.
func (w *Worker) Heartbeat(ctx context.Context) error {
	hb := Heartbeat{Version: ProtocolVersion, ID: w.cfg.ID, Addr: w.cfg.AdvertiseURL}
	var resp HeartbeatResponse
	if err := w.post(ctx, "/fabric/v1/heartbeat", hb, &resp); err != nil {
		w.hbVec.With("error").Inc()
		return err
	}
	if err := checkProtoVersion(resp.Version); err != nil {
		w.hbVec.With("error").Inc()
		return err
	}
	w.hbVec.With("ok").Inc()
	return nil
}

func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.CoordinatorURL+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, msg)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out)
}

// Health returns the worker's /healthz contribution.
func (w *Worker) Health() map[string]any {
	return map[string]any{
		"fabric_role":          "worker",
		"fabric_coordinator":   w.cfg.CoordinatorURL,
		"fabric_exec_inflight": w.inflight.Load(),
		"fabric_heartbeats_ok": w.hbVec.With("ok").Value(),
	}
}

// WriteMetrics renders the worker's counters (plus its store client's,
// when present) in exposition format.
func (w *Worker) WriteMetrics(out io.Writer) { w.reg.Write(out) }
