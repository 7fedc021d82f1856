package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/obs"
	"smthill/internal/simjob"
)

// jobView is the JSON representation of a job returned by the API.
type jobView struct {
	ID         string         `json:"id"`
	Kind       string         `json:"kind"`
	State      JobState       `json:"state"`
	Spec       *simjob.Spec   `json:"spec,omitempty"`
	Experiment string         `json:"experiment,omitempty"`
	Source     string         `json:"source,omitempty"`
	Result     *simjob.Result `json:"result,omitempty"`
	Output     string         `json:"output,omitempty"`
	Error      string         `json:"error,omitempty"`
	EventsURL  string         `json:"events_url"`
	CreatedAt  string         `json:"created_at,omitempty"`
	StartedAt  string         `json:"started_at,omitempty"`
	FinishedAt string         `json:"finished_at,omitempty"`
}

func (s *Server) view(j *job) jobView {
	state, source, result, output, errMsg, created, started, finished := j.snapshot()
	v := jobView{
		ID:        j.id,
		State:     state,
		Source:    string(source),
		Result:    result,
		Output:    output,
		Error:     errMsg,
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	switch j.kind {
	case kindSim:
		v.Kind = "sim"
		spec := j.spec
		v.Spec = &spec
	case kindExperiment:
		v.Kind = "experiment"
		v.Experiment = j.expName
	}
	if !created.IsZero() {
		v.CreatedAt = created.UTC().Format(time.RFC3339Nano)
	}
	if !started.IsZero() {
		v.StartedAt = started.UTC().Format(time.RFC3339Nano)
	}
	if !finished.IsZero() {
		v.FinishedAt = finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// buildRoutes wires the endpoint table. Monitoring endpoints bypass the
// rate limiter so scrapes and health probes never contend with API
// clients. The SSE stream and the experiments endpoint carry no
// middleware deadline: the former lives as long as the job, the latter
// bounds its own synchronous wait (see handleExperiment) and must
// outlive RequestTimeout for ?wait= values beyond it.
func (s *Server) buildRoutes() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "POST /v1/jobs", true, true, s.handleSubmit)
	s.handle(mux, "GET /v1/jobs/{id}", true, true, s.handleJobGet)
	s.handle(mux, "GET /v1/jobs/{id}/events", true, false, s.handleJobEvents)
	s.handle(mux, "GET /v1/experiments/{name}", true, false, s.handleExperiment)
	s.handle(mux, "GET /healthz", false, true, s.handleHealthz)
	s.handle(mux, "GET /metrics", false, true, s.handleMetrics)
	s.handle(mux, "GET /debug/traces", false, true, s.handleDebugTraces)
	// Catch-all: unmatched URLs are answered (and counted) under the
	// single "other" route label instead of falling through to the
	// mux's unobserved 404, so unknown paths cannot mint metric series.
	s.handle(mux, "/", false, true, s.handleNotFound)
	return mux
}

// handleDebugTraces serves the trace ring (404 when tracing is off).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.tracer.DebugHandler().ServeHTTP(w, r)
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "no such endpoint: %s %s", r.Method, r.URL.Path)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits one simulation job: validate the spec (never
// panicking on user input), mint a job, and enqueue it. A full queue is
// 429 + Retry-After; a draining server is 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec simjob.Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}

	j := &job{
		id:    s.store.nextID(),
		kind:  kindSim,
		spec:  spec,
		key:   spec.Key(),
		hub:   newHub(eventBuffer),
		done:  make(chan struct{}),
		trace: obs.FromContext(r.Context()).Context(),
	}
	j.state = StateQueued
	j.created = time.Now()
	s.store.add(j)
	if err := s.admit(w, j); err != nil {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.view(j))
}

// admit enqueues j, translating admission failures to HTTP errors and
// un-registering the rejected job.
func (s *Server) admit(w http.ResponseWriter, j *job) error {
	err := s.enqueue(j)
	switch err {
	case nil:
		return nil
	case errQueueFull:
		s.store.remove(j.id)
		s.metrics.jobRejected("queue_full")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later", s.cfg.QueueDepth)
	case errDraining:
		s.store.remove(j.id)
		s.metrics.jobRejected("draining")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		s.store.remove(j.id)
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return err
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleJobEvents streams the job's event hub as Server-Sent Events:
// full replay of the retained history (state transitions, per-epoch
// telemetry, hill-climbing moves, sweep progress), then live events
// until the job reaches a terminal state. Clients may resume from a
// Last-Event-ID header.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	from := 0
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if id, err := strconv.Atoi(lei); err == nil {
			from = id + 1
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		ev, ok, err := j.hub.next(r.Context(), from)
		if err != nil || !ok {
			// Client went away, or the stream is complete.
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.id, ev.name, ev.data)
		flusher.Flush()
		from = ev.id + 1
	}
}

// handleExperiment submits a named experiment as a job through the same
// admission control and waits up to RequestTimeout (or ?wait=, which may
// exceed it — the route carries no middleware deadline) for it to
// finish: 200 with the rendered output when done in time, otherwise 202
// with the job view for polling. The 202 is also written on client
// disconnect; net/http discards it if nobody is listening, but it keeps
// this handler's only bodyless return the panic path.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !knownExperiment(name) {
		writeError(w, http.StatusNotFound,
			"unknown experiment %q; valid: %v or all", name, experiment.Names())
		return
	}
	q := r.URL.Query()
	cfg := s.cfg.Experiments
	if e := q.Get("epochs"); e != "" {
		n, err := strconv.Atoi(e)
		if err != nil || n <= 0 || n > simjob.MaxEpochs {
			writeError(w, http.StatusBadRequest, "bad epochs %q", e)
			return
		}
		cfg.Epochs = n
	}
	opts := experiment.RunOptions{
		Workloads:     q.Get("workloads"),
		Fig12Workload: q.Get("fig12-workload"),
		JSONRows:      boolParam(q.Get("json")),
	}

	j := &job{
		id:      s.store.nextID(),
		kind:    kindExperiment,
		expName: name,
		expCfg:  cfg,
		expOpts: opts,
		hub:     newHub(eventBuffer),
		done:    make(chan struct{}),
		trace:   obs.FromContext(r.Context()).Context(),
	}
	j.state = StateQueued
	j.created = time.Now()
	s.store.add(j)
	if err := s.admit(w, j); err != nil {
		return
	}

	wait := s.cfg.RequestTimeout
	if wq := q.Get("wait"); wq != "" {
		if d, err := time.ParseDuration(wq); err == nil && d >= 0 && d <= time.Hour {
			wait = d
		}
	}
	// A zero wait answers 202 without looking at the job, so a job fast
	// enough to finish first cannot turn it into a 200.
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
			state, _, _, output, errMsg, _, _, _ := j.snapshot()
			switch state {
			case StateDone:
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, output)
			case StateCanceled:
				writeError(w, http.StatusServiceUnavailable, "%s", errMsg)
			default:
				writeError(w, http.StatusUnprocessableEntity, "%s", errMsg)
			}
			return
		case <-timer.C:
		case <-r.Context().Done():
			// Client gone (this route has no middleware deadline).
		}
	}
	// The job keeps running and stays pollable at the Location below.
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.view(j))
}

func knownExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, n := range experiment.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func boolParam(v string) bool {
	return v == "1" || v == "true" || v == "yes"
}

// handleHealthz reports liveness: 200 while serving, 503 once draining
// (so load balancers stop routing during shutdown).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	status := "ok"
	if s.Draining() {
		code = http.StatusServiceUnavailable
		status = "draining"
	}
	body := map[string]any{
		"status":                 status,
		"queue_depth":            len(s.queue),
		"queue_capacity":         s.cfg.QueueDepth,
		"experiment_queue_depth": len(s.expQueue),
		"inflight":               s.inflight.Load(),
		"workers":                s.cfg.Workers,
	}
	if s.cfg.ExtraHealth != nil {
		// Merging map into map is order-insensitive; JSON encoding sorts
		// the keys.
		for k, v := range s.cfg.ExtraHealth() {
			body[k] = v
		}
	}
	writeJSON(w, code, body)
}

// handleMetrics renders the text exposition: the registry (the
// server's own series plus anything attached via Config.Registry).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.expose.Write(w)
}
