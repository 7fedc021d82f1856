package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// maxResultBytes bounds one stored result on the wire. The largest real
// payloads (per-epoch IPC vectors at paper scale) are a few hundred KB;
// 32 MB leaves two orders of magnitude of headroom while keeping a
// misbehaving client from ballooning a node.
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

// etagFor is the strong validator of a stored result: a quoted sha256
// of the exact bytes.
func etagFor(raw []byte) string {
	sum := sha256.Sum256(raw)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// StoreServer serves a sweep.Backend over HTTP as the fabric's shared
// content-addressed result store:
//
//	GET  /fabric/v1/store?key=K   200 body + ETag, 404 miss
//	PUT  /fabric/v1/store?key=K   204 + ETag of the stored bytes
//
// Results are immutable under the determinism contract, so the server
// never needs invalidation.
type StoreServer struct {
	backend sweep.Backend
	tracer  *obs.Tracer

	reg      *obs.Registry
	requests *obs.CounterVec // op, outcome
	bytes    *obs.CounterVec // dir
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
		bytes: reg.CounterVec("smtserved_fabric_store_bytes_total",
			"result bytes moved by direction", "dir"),
	}
	// Materialize every series up front so a scrape shows the full
	// outcome vocabulary at zero.
	for _, pair := range [][2]string{
		{"get", "hit"}, {"get", "miss"},
		{"put", "stored"}, {"put", "error"}, {"any", "bad_request"},
	} {
		s.requests.With(pair[0], pair[1])
	}
	s.bytes.With("served")
	s.bytes.With("received")
	return s
}

// SetTracer enables server-side spans on store requests.
func (s *StoreServer) SetTracer(t *obs.Tracer) { s.tracer = t }

// Registry returns the server's metric registry, for attachment into a
// node-wide one.
func (s *StoreServer) Registry() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *StoreServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		s.requests.With("any", "bad_request").Inc()
		http.Error(w, "missing key parameter", http.StatusBadRequest)
		return
	}
	ctx, span := s.tracer.StartRemote(r.Context(), obs.Extract(r.Header),
		"store."+strings.ToLower(r.Method), obs.KindServer)
	span.SetAttr("key", key)
	r = r.WithContext(ctx)
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.handleGet(w, r, key, span)
	case http.MethodPut:
		s.handlePut(w, r, key, span)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		span.End(fmt.Errorf("method %s not allowed", r.Method))
		return
	}
}

func (s *StoreServer) handleGet(w http.ResponseWriter, r *http.Request, key string, span *obs.Span) {
	raw, ok := s.backend.Get(r.Context(), key)
	if !ok {
		s.requests.With("get", "miss").Inc()
		span.SetAttr("outcome", "miss")
		span.End(nil)
		http.Error(w, "no result for key", http.StatusNotFound)
		return
	}
	w.Header().Set("ETag", etagFor(raw))
	s.requests.With("get", "hit").Inc()
	s.bytes.With("served").Add(uint64(len(raw)))
	span.SetAttr("outcome", "hit")
	span.End(nil)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(raw)
	}
}

func (s *StoreServer) handlePut(w http.ResponseWriter, r *http.Request, key string, span *obs.Span) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBytes))
	if err != nil {
		s.requests.With("any", "bad_request").Inc()
		span.End(err)
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	if !json.Valid(raw) {
		s.requests.With("any", "bad_request").Inc()
		span.End(fmt.Errorf("body is not valid JSON"))
		http.Error(w, "body is not valid JSON", http.StatusBadRequest)
		return
	}
	if err := s.backend.Put(r.Context(), key, raw); err != nil {
		s.requests.With("put", "error").Inc()
		span.End(err)
		http.Error(w, fmt.Sprintf("store: %v", err), http.StatusInternalServerError)
		return
	}
	s.requests.With("put", "stored").Inc()
	s.bytes.With("received").Add(uint64(len(raw)))
	span.End(nil)
	w.Header().Set("ETag", etagFor(raw))
	w.WriteHeader(http.StatusNoContent)
}

// WriteMetrics renders the server's counters in exposition format.
func (s *StoreServer) WriteMetrics(w io.Writer) { s.reg.Write(w) }
