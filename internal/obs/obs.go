// Package obs is the cluster-level observability layer: distributed
// tracing with W3C traceparent propagation across the sweep fabric, and
// a unified metrics registry with Prometheus-text encoding.
//
// The paper's technique is a closed feedback loop — per-epoch IPC
// samples drive the climber's next move — and once PR 6 spread that
// loop across a cluster, a single sweep key's latency became the sum of
// a submit hop, a placement decision, a remote compute, and the store
// reads that compute makes. This package makes that path observable end
// to end:
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
//   - debug.go: the /debug/traces handler (JSON trace list + one-trace
//     timeline).
//   - exporter.go: the bridge back into internal/telemetry — spans as
//     flat Events through any telemetry.Sink. Per-epoch detail stays in
//     the simulator's own epoch event stream; no span duplicates it.
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
