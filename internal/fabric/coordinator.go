package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// CoordinatorConfig parameterises a Coordinator. The zero value of
// every field selects a default.
type CoordinatorConfig struct {
	// Store is the backing result store (default: a fresh MemStore).
	// Wire the coordinator's disk cache here to persist across runs.
	Store sweep.Backend
	// HeartbeatTimeout is how long a silent worker stays live before
	// being reaped (default 10s).
	HeartbeatTimeout time.Duration
	// ExecTimeout bounds one dispatched job execution (default 10m,
	// matching serve's job timeout).
	ExecTimeout time.Duration
	// Client performs dispatch HTTP (default http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
	// Tracer, when set, records dispatch client spans (with placement
	// decisions as span events) and adopts the spans workers backhaul
	// in exec responses, so the coordinator's ring holds whole
	// cross-node traces.
	Tracer *obs.Tracer
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.ExecTimeout <= 0 {
		c.ExecTimeout = 10 * time.Minute
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// member is the coordinator's view of one worker. inflight counts the
// dispatches this coordinator has outstanding on it: the only load
// signal placement reads.
type member struct {
	id       string
	addr     string
	lastSeen time.Time
	inflight int
	alive    bool
}

// Coordinator owns the fabric's control plane: worker membership and
// liveness, the shared result store (served read-only over HTTP), and
// job dispatch. It implements sweep.Remote, so installing it on an engine
// (sweep.SetRemote) makes every engine job transparently eligible for
// distribution; any dispatch failure falls back to local execution in
// the engine.
type Coordinator struct {
	cfg CoordinatorConfig
	now func() time.Time // injectable for liveness tests

	store    *countingStore
	storeSrv *StoreServer
	handler  http.Handler

	mu      sync.Mutex
	members map[string]*member // guarded by mu

	reg            *obs.Registry
	peersGauge     *obs.GaugeVec // state
	dispatches     *obs.Counter
	redispatched   *obs.Counter
	dispatchFailed *obs.Counter
	localFallback  *obs.Counter
	reapedTotal    *obs.Counter
	registeredTot  *obs.Counter
	execMS         *obs.Hist
}

// NewCoordinator builds a coordinator. Mount Handler under /fabric/v1/
// next to the serve API, install the coordinator on the serving
// engine with SetRemote(c) and SetBackend(c.Backend()), and workers do
// the rest.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:     cfg,
		now:     time.Now,
		store:   &countingStore{Backend: cfg.Store},
		members: map[string]*member{},
		reg:     reg,
		peersGauge: reg.GaugeVec("smtserved_fabric_peers",
			"registered workers by liveness state", "state"),
		dispatches: reg.Counter("smtserved_fabric_dispatch_total",
			"successful dispatches"),
		redispatched: reg.Counter("smtserved_fabric_redispatch_total",
			"dispatch attempts after the first, per job"),
		dispatchFailed: reg.Counter("smtserved_fabric_dispatch_failed_total",
			"jobs every candidate worker failed to serve"),
		localFallback: reg.Counter("smtserved_fabric_local_fallback_total",
			"jobs declined to the local engine (no live workers or non-retryable rejection)"),
		reapedTotal: reg.Counter("smtserved_fabric_workers_reaped_total",
			"workers removed after missing heartbeats"),
		registeredTot: reg.Counter("smtserved_fabric_workers_registered_total",
			"distinct workers ever registered"),
		execMS: reg.Hist("smtserved_fabric_exec_ms",
			"end-to-end dispatch latency in milliseconds"),
	}
	// Materialize the full label vocabulary so zero-valued series render.
	c.peersGauge.With("alive")
	c.peersGauge.With("dead")
	c.storeSrv = NewStoreServer(c.store)
	c.storeSrv.SetTracer(cfg.Tracer)
	reg.Attach(c.storeSrv.Registry())
	mux := http.NewServeMux()
	// A worker joins by heartbeating. The register route is the same
	// message under the name protocol-1 workers send first.
	mux.HandleFunc("POST /fabric/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/v1/register", c.handleHeartbeat)
	mux.Handle("/fabric/v1/store", c.storeSrv)
	c.handler = mux
	return c
}

// Handler returns the coordinator's HTTP surface (heartbeat and
// store).
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Backend returns the result store as a sweep.Backend. Install it on
// the coordinator's own engine: that engine is the store's only
// writer, storing each result once, whether a worker computed it or
// the engine did.
func (c *Coordinator) Backend() sweep.Backend { return c.store }

// Registry returns the coordinator's metric registry (dispatch,
// liveness, and store-server series), for attachment into a node-wide
// registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// handleHeartbeat admits or refreshes the beating worker, then reaps
// the silent ones.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	_, span := c.cfg.Tracer.StartFrom(r.Context(), obs.Extract(r.Header), "fabric.heartbeat", obs.KindServer)
	var hb Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&hb); err != nil {
		http.Error(w, fmt.Sprintf("bad heartbeat: %v", err), http.StatusBadRequest)
		span.End(err)
		return
	}
	if err := checkProtoVersion(hb.Version); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		span.End(err)
		return
	}
	if hb.ID == "" || hb.Addr == "" {
		http.Error(w, "heartbeat requires id and addr", http.StatusBadRequest)
		span.End(fmt.Errorf("heartbeat missing id/addr"))
		return
	}
	c.admit(hb.ID, hb.Addr)
	c.reap()
	span.SetAttr("worker", hb.ID)
	span.End(nil)
	writeProtoJSON(w, HeartbeatResponse{Version: ProtocolVersion})
}

func writeProtoJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// admit adds or refreshes a member: a worker's first heartbeat, every
// later one, and the beat of a reaped worker coming back all land
// here, so a worker that restarts (or outlives a coordinator restart)
// rejoins on its next beat with no special handshake.
func (c *Coordinator) admit(id, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		m = &member{id: id}
		c.members[id] = m
		c.registeredTot.Inc()
	}
	back := !m.alive
	m.addr = addr
	m.alive = true
	m.lastSeen = c.now()
	live := c.updatePeerGauges()
	switch {
	case back && ok:
		c.cfg.Logf("fabric: worker %s back (%d live)", id, live)
	case back:
		c.cfg.Logf("fabric: worker %s joined from %s (%d live)", id, addr, live)
	}
}

// updatePeerGauges refreshes the alive/dead membership gauges and
// returns the live count. Callers hold mu.
func (c *Coordinator) updatePeerGauges() int {
	alive, dead := 0, 0
	for _, m := range c.members {
		if m.alive {
			alive++
		} else {
			dead++
		}
	}
	c.peersGauge.With("alive").Set(float64(alive))
	c.peersGauge.With("dead").Set(float64(dead))
	return alive
}

// reap marks workers silent past the liveness timeout dead. It takes
// mu itself and must not be called with mu held.
func (c *Coordinator) reap() {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := c.members[id]
		if m.alive && now.Sub(m.lastSeen) > c.cfg.HeartbeatTimeout {
			m.alive = false
			c.reapedTotal.Inc()
			c.cfg.Logf("fabric: worker %s missed heartbeats for %s, reaped (%d live)",
				id, now.Sub(m.lastSeen).Round(time.Millisecond), c.updatePeerGauges())
		}
	}
}

// suspect marks a worker dead after a failed dispatch, without waiting
// for the heartbeat timeout: the connection already told us.
func (c *Coordinator) suspect(id string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok && m.alive {
		m.alive = false
		c.cfg.Logf("fabric: worker %s unreachable (%v), re-dispatching (%d live)", id, err, c.updatePeerGauges())
	}
}

// pick claims the live worker, outside tried, with the fewest
// dispatches this coordinator has outstanding on it; ties go to the
// lower id. It returns the worker's id and address and its in-flight
// count before the claim; ok is false when no candidate is left. The
// caller releases the claim when the attempt returns.
//
// No memo-warm preference is needed: the engine consults its memo and
// the shared store before calling Exec, so a key any node has stored is
// never placed, and any worker computes any other key to the same
// bytes.
func (c *Coordinator) pick(tried map[string]bool) (id, addr string, inflight int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *member
	for _, m := range c.members {
		if m.alive && !tried[m.id] && (best == nil || m.inflight < best.inflight ||
			m.inflight == best.inflight && m.id < best.id) {
			best = m
		}
	}
	if best == nil {
		return "", "", 0, false
	}
	best.inflight++
	return best.id, best.addr, best.inflight - 1, true
}

// release ends a claim taken by pick.
func (c *Coordinator) release(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members[id].inflight--
}

// Exec implements sweep.Remote: dispatch the key to the least-loaded
// live worker, picking again until one answers. Transport failures mark
// the worker dead and re-dispatch to the next pick — this is the
// mid-sweep worker-death recovery path. A worker that *rejects* the key
// (bad key, execution error) ends dispatch with handled=false so the
// local engine computes it and surfaces the authoritative error.
// handled=false is always safe: the engine falls back to local
// execution, which produces identical bytes by the determinism
// contract.
//
// Placement decisions land on the dispatch span as events — one pick
// per attempt with the worker's in-flight count, suspects, rejections —
// and a successful response's backhauled worker spans are adopted into
// the coordinator tracer, so one /debug/traces lookup shows the whole
// cross-node journey.
func (c *Coordinator) Exec(ctx context.Context, key string) (json.RawMessage, bool, error) {
	c.reap()
	id, addr, inflight, ok := c.pick(nil)
	if !ok {
		c.localFallback.Inc()
		return nil, false, nil
	}
	ctx, span := obs.Start(ctx, "fabric.dispatch", obs.KindClient)
	span.SetAttr("key", key)
	start := c.now()
	tried := map[string]bool{}
	for ok {
		if len(tried) > 0 {
			c.redispatched.Inc()
		}
		tried[id] = true
		span.Event("pick", "worker", id, "inflight", strconv.Itoa(inflight))
		raw, spans, retryable, err := c.execOn(ctx, addr, key)
		c.release(id)
		if err == nil {
			c.dispatches.Inc()
			c.execMS.Observe(int(c.now().Sub(start).Milliseconds()))
			span.SetAttr("worker", id)
			span.End(nil)
			c.cfg.Tracer.Adopt(spans)
			return raw, true, nil
		}
		if !retryable {
			c.localFallback.Inc()
			span.Event("rejected", "worker", id)
			span.End(nil)
			return nil, false, nil
		}
		c.suspect(id, err)
		span.Event("suspect", "worker", id)
		if ctx.Err() != nil {
			// The batch is being cancelled; let the engine see it locally.
			span.End(nil)
			return nil, false, nil
		}
		id, addr, inflight, ok = c.pick(tried)
	}
	c.dispatchFailed.Inc()
	span.End(fmt.Errorf("fabric: every candidate failed for %s", key))
	return nil, false, nil
}

// execOn performs one dispatch attempt. retryable distinguishes "this
// worker is broken, try another" (transport error, 5xx) from "this job
// is broken everywhere" (4xx: version skew, unknown or failing key),
// which must not burn through every worker.
func (c *Coordinator) execOn(ctx context.Context, addr, key string) (raw json.RawMessage, spans []obs.SpanData, retryable bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ExecTimeout)
	defer cancel()
	body, _ := json.Marshal(ExecRequest{Version: ProtocolVersion, Key: key})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/fabric/v1/exec", bytes.NewReader(body))
	if err != nil {
		return nil, nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("fabric: exec %s on %s: HTTP %d: %s", key, addr, resp.StatusCode, bytes.TrimSpace(msg))
		return nil, nil, resp.StatusCode >= 500, err
	}
	var er ExecResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBytes)).Decode(&er); err != nil {
		return nil, nil, true, fmt.Errorf("fabric: exec %s on %s: %v", key, addr, err)
	}
	if err := checkProtoVersion(er.Version); err != nil {
		return nil, nil, false, err
	}
	if er.Key != key || len(er.Result) == 0 || !json.Valid(er.Result) {
		return nil, nil, true, fmt.Errorf("fabric: exec %s on %s: malformed response", key, addr)
	}
	return er.Result, er.Spans, false, nil
}

// PeerStatus is one worker's liveness as reported by Health. Inflight
// is the number of dispatches this coordinator has outstanding on it.
type PeerStatus struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Alive      bool   `json:"alive"`
	Inflight   int    `json:"inflight"`
	LastSeenMS int64  `json:"last_seen_ms"`
}

// Peers returns the membership sorted by id.
func (c *Coordinator) Peers() []PeerStatus {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, PeerStatus{
			ID: m.id, Addr: m.addr, Alive: m.alive, Inflight: m.inflight,
			LastSeenMS: now.Sub(m.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Health returns the coordinator's /healthz contribution.
// fabric_store_keys is the number of results stored so far.
func (c *Coordinator) Health() map[string]any {
	peers := c.Peers()
	alive := 0
	for _, p := range peers {
		if p.Alive {
			alive++
		}
	}
	return map[string]any{
		"fabric_role":        "coordinator",
		"fabric_peers":       peers,
		"fabric_peers_alive": alive,
		"fabric_store_keys":  c.store.puts.Load(),
	}
}

// WriteMetrics renders the coordinator's counters (dispatch outcomes,
// liveness, latency) plus its store server's, in exposition format.
func (c *Coordinator) WriteMetrics(w io.Writer) { c.reg.Write(w) }

// countingStore counts successful Puts into the backing store, the
// source of Health's fabric_store_keys. The coordinator's engine is the
// only writer, and it stores a key only after its memo and this store
// missed it, so each stored key counts once (unless two concurrent
// batches miss the same key and both store it).
type countingStore struct {
	sweep.Backend
	puts atomic.Uint64
}

// Put implements sweep.Backend.
func (s *countingStore) Put(ctx context.Context, key string, raw json.RawMessage) error {
	if err := s.Backend.Put(ctx, key, raw); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}
