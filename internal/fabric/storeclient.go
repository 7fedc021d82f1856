package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// StoreClient is a sweep.Backend that reads through to the fabric's
// remote result store, with an optional local tier: Get consults the
// local backend first, then fetches from the store (caching what it
// finds); Put writes the local tier only, because the coordinator's
// engine stores every result it adopts and the store accepts no
// writes. A worker plugs a StoreClient into its engine, so every memo
// miss checks whether the store already holds the key (the singles an
// OFF-LINE or RAND-HILL key needs, say) before burning cycles on it.
//
// The remote side is strictly best-effort: an unreachable store makes
// Get a local-only lookup. Nothing blocks on the network holding a
// lock, and no store failure can fail a job.
//
// Requests propagate the caller's trace context as a traceparent
// header, so store round-trips show up as client spans inside the
// job's distributed trace.
type StoreClient struct {
	base  string // store endpoint, e.g. "http://coord:8080/fabric/v1/store"
	local sweep.Backend
	hc    *http.Client

	reg      *obs.Registry
	outcomes *obs.CounterVec // outcome
}

// NewStoreClient builds a client for the store mounted under baseURL
// (the node base, e.g. "http://coord:8080"; the store path is
// appended). local is the read-through cache — typically the node's
// disk cache — and may be nil for remote-only operation.
// hc may be nil for http.DefaultClient.
func NewStoreClient(baseURL string, local sweep.Backend, hc *http.Client) *StoreClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	reg := obs.NewRegistry()
	c := &StoreClient{
		base:  baseURL + "/fabric/v1/store",
		local: local,
		hc:    hc,
		reg:   reg,
		outcomes: reg.CounterVec("smtserved_fabric_store_client_total",
			"store client operations by outcome", "outcome"),
	}
	for _, o := range []string{
		"local_hit", "remote_hit", "miss", "net_error",
	} {
		c.outcomes.With(o)
	}
	return c
}

// Registry returns the client's metric registry, for attachment into a
// node-wide one.
func (c *StoreClient) Registry() *obs.Registry { return c.reg }

func (c *StoreClient) keyURL(key string) string {
	return c.base + "?key=" + url.QueryEscape(key)
}

// Get implements sweep.Backend: local cache first, then the store; a
// store hit is written back locally so the next lookup is free.
func (c *StoreClient) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	if c.local != nil {
		if raw, ok := c.local.Get(ctx, key); ok {
			c.outcomes.With("local_hit").Inc()
			return raw, true
		}
	}
	raw, ok := c.fetch(ctx, key)
	if !ok {
		return nil, false
	}
	c.outcomes.With("remote_hit").Inc()
	if c.local != nil {
		_ = c.local.Put(ctx, key, raw)
	}
	return raw, true
}

// fetch GETs one key. ok=false covers miss and network failure alike
// (each counted).
func (c *StoreClient) fetch(ctx context.Context, key string) (raw json.RawMessage, ok bool) {
	ctx, span := obs.Start(ctx, "store.get", obs.KindClient)
	span.SetAttr("key", key)
	outcome := func(o string, err error) {
		span.SetAttr("outcome", o)
		span.End(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(key), nil)
	if err != nil {
		c.outcomes.With("net_error").Inc()
		outcome("net_error", err)
		return nil, false
	}
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.outcomes.With("net_error").Inc()
		outcome("net_error", err)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
		if err != nil || !json.Valid(raw) {
			c.outcomes.With("net_error").Inc()
			outcome("net_error", fmt.Errorf("fabric: store get %s: bad body", key))
			return nil, false
		}
		outcome("remote_hit", nil)
		return raw, true
	case http.StatusNotFound:
		c.outcomes.With("miss").Inc()
		outcome("miss", nil)
		return nil, false
	default:
		c.outcomes.With("net_error").Inc()
		outcome("net_error", fmt.Errorf("fabric: store get %s: HTTP %d", key, resp.StatusCode))
		return nil, false
	}
}

// Put implements sweep.Backend. It writes the local tier only.
func (c *StoreClient) Put(ctx context.Context, key string, raw json.RawMessage) error {
	if c.local == nil {
		return nil
	}
	return c.local.Put(ctx, key, raw)
}

// WriteMetrics renders the client's counters in exposition format. The
// outcome label says where a result came from, so an operator can read
// the local/remote hit split per node.
func (c *StoreClient) WriteMetrics(w io.Writer) { c.reg.Write(w) }
