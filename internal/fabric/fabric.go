// Package fabric distributes the sweep engine across processes: a
// coordinator places each job key on the live worker with the
// fewest of its dispatches outstanding, workers execute keys on their
// local engines, and the coordinator's content-addressed result store,
// served read-only, lets a worker read what any node computed.
//
// The design leans entirely on the sweep package's determinism
// contract: a job key uniquely determines its result, and results
// round-trip JSON byte-exactly. Keys are therefore the only thing that
// crosses the wire — a worker rebuilds the job from its key through
// experiment.ExecKeyOn, the one executor for every key family (simjob
// specs and the experiment jobs alike), and returns the engine's stored
// bytes, which the coordinator adopts verbatim. ExecKeyOn refuses a key
// that does not rebuild to itself before anything runs. Distribution is
// an optimisation, never a correctness dependency: any failure
// (unreachable worker, version skew, unknown key family) falls back to
// local computation and produces the same bytes.
//
// Topology: the coordinator owns the result store and the membership.
// Its engine is the store's only writer: it stores each result once,
// the bytes a worker answered with or the ones it computed itself.
// Workers only read the store (a worker running an OFF-LINE key, say,
// reads the singles the coordinator computed), and no store route
// accepts a write.
// A worker joins by heartbeating over HTTP: its first beat admits it,
// and later beats keep it live. A heartbeat carries only the worker's
// id and address. Placement needs no report from the worker: the
// coordinator counts the dispatches it has outstanding on each one, and
// any worker computes any key to the same bytes. No memo state travels
// either: the engine consults its memo and the shared store before it
// dispatches, so a key any node has stored never reaches placement. A
// worker that misses heartbeats past the liveness timeout is reaped;
// jobs in flight to it are re-dispatched to surviving workers the
// moment the connection fails, so a mid-sweep worker death costs a
// retry, not the sweep.
//
// The package deliberately sits outside the simulator's determinism
// boundary (see internal/lint's nondeterminism rule): it reads the
// wall clock for liveness and latency only; nothing here feeds
// simulator state.
package fabric

import (
	"encoding/json"
	"fmt"

	"smthill/internal/obs"
)

// ProtocolVersion stamps every fabric wire message. A node receiving a
// message with a version it does not speak refuses it; the sender then
// treats the peer as unusable and computes locally, so a mixed-version
// cluster degrades to standalone behaviour instead of exchanging bytes
// with drifted semantics.
const ProtocolVersion = 1

// checkProtoVersion rejects messages from nodes speaking a different
// fabric protocol revision.
func checkProtoVersion(v int) error {
	if v != ProtocolVersion {
		return fmt.Errorf("fabric: protocol version %d, want %d", v, ProtocolVersion)
	}
	return nil
}

// Heartbeat is a worker's periodic liveness report, and its first beat
// is how it joins. Decoders ignore unknown fields, so beats from nodes
// that still send retired fields (queue_depth, seq, recent_keys) are
// accepted. A protocol-1 worker's register message has the same body
// and is served as a heartbeat.
type Heartbeat struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Addr    string `json:"addr"`
}

// HeartbeatResponse acknowledges a beat.
type HeartbeatResponse struct {
	Version int `json:"version"`
}

// ExecRequest asks a worker to execute one job key.
type ExecRequest struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
}

// ExecResponse carries the result bytes back. Result is the worker
// engine's stored JSON for the key, verbatim — the coordinator adopts
// it without re-encoding so distributed results stay byte-identical to
// local ones. Spans backhauls the
// worker-side trace spans of this execution (server span, engine
// compute, learning epochs, store round-trips) when the request
// carried a sampled traceparent; the coordinator adopts them so its
// /debug/traces shows the whole cross-node trace.
type ExecResponse struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Result  json.RawMessage `json:"result"`
	Spans   []obs.SpanData  `json:"spans,omitempty"`
}
