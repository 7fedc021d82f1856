package fabric

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// maxResultBytes bounds one result read off the wire (a store GET or an
// exec response). The largest real payloads (per-epoch IPC vectors at
// paper scale) are a few hundred KB; 32 MB leaves two orders of
// magnitude of headroom while keeping a misbehaving peer from
// ballooning a node.
const maxResultBytes = 32 << 20

// MemStore is an in-memory sweep.Backend: the coordinator's default
// result store when no disk cache is configured, and the test double
// throughout the package. All methods are safe for concurrent use.
type MemStore struct {
	mu sync.Mutex
	m  map[string]json.RawMessage // guarded by mu
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{m: map[string]json.RawMessage{}} }

// Get implements sweep.Backend.
func (s *MemStore) Get(_ context.Context, key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.m[key]
	if !ok {
		return nil, false
	}
	return append(json.RawMessage(nil), raw...), true
}

// Put implements sweep.Backend.
func (s *MemStore) Put(_ context.Context, key string, raw json.RawMessage) error {
	cp := append(json.RawMessage(nil), raw...)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Len returns the number of stored results.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// StoreServer serves a sweep.Backend over HTTP as the fabric's shared
// content-addressed result store, read-only:
//
//	GET /fabric/v1/store?key=K   200 body, 404 miss
//
// Only the coordinator's engine writes the backend, once per computed
// key; no route accepts a write, so no client can replace a result.
// Results are immutable under the determinism contract, so the server
// never needs invalidation.
type StoreServer struct {
	backend sweep.Backend
	tracer  *obs.Tracer

	reg      *obs.Registry
	requests *obs.CounterVec // op, outcome
}

// NewStoreServer serves backend. The Coordinator wraps its backend to
// count stored results; standalone use works with any Backend.
func NewStoreServer(backend sweep.Backend) *StoreServer {
	reg := obs.NewRegistry()
	s := &StoreServer{
		backend: backend,
		reg:     reg,
		requests: reg.CounterVec("smtserved_fabric_store_requests_total",
			"store requests by op and outcome", "op", "outcome"),
	}
	// Materialize every series up front so a scrape shows the full
	// outcome vocabulary at zero.
	for _, pair := range [][2]string{{"get", "hit"}, {"get", "miss"}, {"any", "bad_request"}} {
		s.requests.With(pair[0], pair[1])
	}
	return s
}

// SetTracer enables server-side spans on store requests.
func (s *StoreServer) SetTracer(t *obs.Tracer) { s.tracer = t }

// Registry returns the server's metric registry, for attachment into a
// node-wide one.
func (s *StoreServer) Registry() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler. Any method but GET gets 405.
func (s *StoreServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		s.requests.With("any", "bad_request").Inc()
		http.Error(w, "missing key parameter", http.StatusBadRequest)
		return
	}
	_, span := s.tracer.StartRemote(r.Context(), obs.Extract(r.Header), "store.get", obs.KindServer)
	span.SetAttr("key", key)
	raw, ok := s.backend.Get(r.Context(), key)
	if !ok {
		s.requests.With("get", "miss").Inc()
		span.SetAttr("outcome", "miss")
		span.End(nil)
		http.Error(w, "no result for key", http.StatusNotFound)
		return
	}
	s.requests.With("get", "hit").Inc()
	span.SetAttr("outcome", "hit")
	span.End(nil)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// WriteMetrics renders the server's counters in exposition format.
func (s *StoreServer) WriteMetrics(w io.Writer) { s.reg.Write(w) }
