// Package obs is the cluster-level observability layer: distributed
// tracing with W3C traceparent propagation, a unified metrics registry
// with Prometheus-text encoding, and cross-node metrics federation for
// the sweep fabric.
//
// The paper's technique is a closed feedback loop — per-epoch IPC
// samples drive the climber's next move — and once PR 6 spread that
// loop across a cluster, a single sweep key's latency became the sum of
// a submit hop, a placement decision, a remote compute, and a store
// write-back. This package makes that path observable end to end:
//
//   - trace.go: the span model (trace ID, span ID, parent, kind, attrs,
//     status), context.Context propagation, head-based 1/N sampling
//     with always-sample-on-error, a bounded in-process span ring, and
//     traceparent header injection/extraction so one trace survives
//     every fabric HTTP hop.
//   - registry.go: Registry, the single metric surface serve, sweep,
//     and fabric all register into — counters, gauges, and
//     power-of-two histograms (reusing telemetry.Hist) with label
//     support, name/label validation, and deterministic sorted
//     Prometheus-text rendering.
//   - federation.go: Federator, the coordinator-side scraper that polls
//     worker /metrics on the heartbeat cadence and renders
//     /metrics/cluster (per-node series plus aggregates, with suspect
//     peers marked stale).
//   - debug.go: the /debug/traces handler (JSON trace list + one-trace
//     timeline).
//   - exporter.go: the bridge back into internal/telemetry — spans as
//     flat Events through any telemetry.Sink, and epoch-boundary child
//     spans derived from the simulator's epoch event stream.
//
// Overhead contract: a nil *Tracer and a nil *Span no-op on every
// method, so tracing off costs one branch at each (job-level, never
// cycle-level) instrumentation site. The pipeline hot loop is never
// touched; TestTracingOffIsInert and BenchmarkSimulatorSpeed pin this.
//
// obs sits outside the determinism boundary, like internal/serve and
// internal/fabric: wall-clock reads and entropy here time and label
// orchestration, and never feed simulator state.
package obs
