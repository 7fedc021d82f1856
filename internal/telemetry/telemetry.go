// Package telemetry is the simulator's observability layer: a structured
// event stream, pluggable sinks, per-thread stall-attribution counters,
// and process-level profiling hooks.
//
// The paper's argument rests on *why* a partition wins — resource clog,
// cache-miss clustering, hill-shaped IPC-vs-partition curves (Sections
// 3–5) — phenomena invisible in end-of-run IPC alone. This package makes
// them observable from a live run:
//
//   - Event is the single flat record every producer emits: per-epoch
//     results from core.Runner (partition vector, per-thread IPC, metric
//     score, sampling markers), hill-climbing moves (gradient direction
//     tried, accepted/reverted), sweep-engine job completions, and batch
//     utilisation summaries.
//   - Sink is the delivery interface; JSONLSink, CSVSink, and MemorySink
//     are the built-in implementations. All are safe for concurrent Emit,
//     so parallel sweep jobs may share one sink.
//   - Recorder (recorder.go) holds the per-thread, per-stage stall and
//     occupancy counters internal/pipeline fills when one is attached.
//   - profile.go wraps runtime/pprof and net/http/pprof for the
//     -cpuprofile/-memprofile/-pprof command-line hooks.
//
// Overhead contract: every producer guards its instrumentation behind a
// single nil check (nil Sink, nil Recorder), so a run with telemetry off
// pays one predictable branch per emission site and allocates nothing.
// The guard-rail benchmark BenchmarkSimulatorSpeed pins the pipeline
// hot loop's cost at <2% over an uninstrumented build.
//
// The Event JSON schema is pinned by a golden-file test
// (internal/core/testdata/epoch_trace.golden.jsonl); extend it by adding
// fields, never by renaming or re-typing existing ones.
package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Event types emitted by the simulator. Kept as constants so producers
// and stream consumers share one vocabulary.
const (
	// TypeEpoch is one completed epoch of a Runner or idealised learner.
	TypeEpoch = "epoch"
	// TypeMove is one hill-climbing step: a trial direction, or a
	// round-end accept/revert decision.
	TypeMove = "move"
	// TypeJob is one completed sweep-engine job.
	TypeJob = "job"
	// TypeSummary is a sweep batch utilisation summary.
	TypeSummary = "summary"
	// TypeMigration is one thread moved between cores by the multicore
	// allocation layer (Thread is the logical thread; Attrs carries
	// "from", "to", and "policy").
	TypeMigration = "migration"
	// TypeOccupancy is a per-epoch multicore snapshot: Shares holds each
	// core's shared-L3 resident line count, IPC the aggregate IPC.
	TypeOccupancy = "occupancy"
)

// Event kinds, qualifying the type.
const (
	// KindLearning marks a learning epoch (the distributor chose shares).
	KindLearning = "learning"
	// KindSample marks a SingleIPC sampling epoch (one thread ran alone).
	KindSample = "sample"
	// KindTried marks a trial move: the gradient direction tested this
	// epoch.
	KindTried = "tried"
	// KindAccepted marks the round's winning direction: the anchor moved
	// this way.
	KindAccepted = "accepted"
	// KindReverted marks a round direction that lost: its shift was
	// undone.
	KindReverted = "reverted"
)

// None marks an int field that does not apply to the event (e.g. the
// thread of a batch summary). Using an explicit sentinel instead of
// omitempty keeps thread 0 and epoch 0 representable.
const None = -1

// Event is one telemetry record. It is a single flat struct across all
// producers so a JSONL stream needs no envelope and jq filters compose
// (`select(.type=="epoch")`). Fields that do not apply to a given type
// are None (ints), zero (floats), or omitted (strings, slices, maps).
type Event struct {
	// Type discriminates the record: epoch, move, job, or summary.
	Type string `json:"type"`
	// Run labels the simulation run the event belongs to (typically
	// "workload/technique"), so interleaved streams from parallel jobs
	// stay attributable.
	Run string `json:"run,omitempty"`
	// Epoch is the epoch ordinal within the run, or None.
	Epoch int `json:"epoch"`
	// Kind qualifies the type: learning/sample for epochs,
	// tried/accepted/reverted for moves, run/memo/cache for jobs.
	Kind string `json:"kind,omitempty"`
	// Thread is the thread the event concerns (sampled thread, trial
	// direction), or None.
	Thread int `json:"thread"`
	// Delta is the hill-climbing step size of a move event.
	Delta int `json:"delta,omitempty"`
	// Shares is the partition vector in effect (rename registers per
	// thread); empty when the machine ran unpartitioned.
	Shares []int `json:"shares,omitempty"`
	// IPC is the per-thread IPC of an epoch.
	IPC []float64 `json:"ipc,omitempty"`
	// Committed is the per-thread committed-instruction count of an
	// epoch.
	Committed []uint64 `json:"committed,omitempty"`
	// Score is the feedback-metric value (epoch, move) .
	Score float64 `json:"score"`
	// Stalls holds stall-attribution counts for the epoch, summed over
	// threads, keyed by Recorder counter name (see recorder.go).
	Stalls map[string]uint64 `json:"stalls,omitempty"`
	// Key is the sweep job key of a job event.
	Key string `json:"key,omitempty"`
	// Seconds is wall-clock time: one job's compute time, or a summary's
	// batch duration.
	Seconds float64 `json:"seconds,omitempty"`
	// Jobs and CacheHits describe a summary's batch.
	Jobs      int `json:"jobs,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
	// Workers is the pool size behind a summary.
	Workers int `json:"workers,omitempty"`
	// Utilization is busy-time / (wall-time * workers) of a summary.
	Utilization float64 `json:"utilization,omitempty"`
	// Trace, Span, Parent, Status, and Node carry distributed-tracing
	// identity on span events exported through internal/obs
	// (SinkExporter). JSONL-only: the CSV column set is fixed, and all
	// five are omitted from every non-span event, so pre-existing
	// streams are byte-identical.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Status string `json:"status,omitempty"`
	Node   string `json:"node,omitempty"`
	// Attrs holds a span event's attributes.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Sink receives telemetry events. Implementations must be safe for
// concurrent Emit: parallel sweep jobs share one sink.
type Sink interface {
	Emit(Event)
}

// JSONLSink writes one JSON object per line. Lines are atomic under
// concurrent Emit; field order is fixed by the Event struct and map keys
// are emitted sorted, so equal events marshal to equal bytes.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer // guarded by mu
	enc *json.Encoder // guarded by mu
	err error         // guarded by mu
}

// NewJSONL returns a JSONL sink writing to w. Call Close to flush.
func NewJSONL(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink. The first write error is retained and surfaced by
// Close; telemetry failures never abort a simulation.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(ev); err != nil && s.err == nil {
		s.err = err
	}
}

// Close flushes buffered events and returns the first error seen.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// csvHeader is the fixed CSV column set. Vector fields are joined with
// ';' inside one cell so the column count is schema-stable across thread
// counts.
var csvHeader = []string{
	"type", "run", "epoch", "kind", "thread", "delta",
	"shares", "ipc", "committed", "score", "key", "seconds",
}

// CSVSink renders events as CSV rows with the csvHeader columns —
// the spreadsheet-friendly subset of the stream (stall maps and batch
// summaries are JSONL-only).
type CSVSink struct {
	mu     sync.Mutex
	w      *csv.Writer // guarded by mu
	header bool        // guarded by mu
	err    error       // guarded by mu
}

// NewCSV returns a CSV sink writing to w. Call Close to flush.
func NewCSV(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// Emit implements Sink.
func (s *CSVSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.header {
		s.header = true
		if err := s.w.Write(csvHeader); err != nil && s.err == nil {
			s.err = err
		}
	}
	rec := []string{
		ev.Type, ev.Run, strconv.Itoa(ev.Epoch), ev.Kind,
		strconv.Itoa(ev.Thread), strconv.Itoa(ev.Delta),
		joinInts(ev.Shares), joinFloats(ev.IPC), joinUints(ev.Committed),
		formatFloat(ev.Score), ev.Key, formatFloat(ev.Seconds),
	}
	if err := s.w.Write(rec); err != nil && s.err == nil {
		s.err = err
	}
}

// Close flushes buffered rows and returns the first error seen.
func (s *CSVSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Flush()
	if err := s.w.Error(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func joinInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ";")
}

func joinUints(vs []uint64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(v, 10)
	}
	return strings.Join(parts, ";")
}

func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatFloat(v)
	}
	return strings.Join(parts, ";")
}

// MemorySink buffers events in memory, for tests and programmatic
// consumers.
type MemorySink struct {
	mu     sync.Mutex
	events []Event // guarded by mu
}

// Emit implements Sink.
func (s *MemorySink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Len returns the number of events emitted so far.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// SinkFunc adapts a function to the Sink interface, the bridge for
// consumers that are themselves a function — an SSE subscriber hub, a
// test probe, an in-process filter. The function must be safe for
// concurrent calls, like any Sink.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Tee fans one event out to several sinks.
type Tee []Sink

// Emit implements Sink.
func (t Tee) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// OpenSink creates (truncating) a trace file at path and returns a sink
// chosen by extension: ".csv" selects CSV, everything else JSONL. The
// returned close function flushes the sink and closes the file.
func OpenSink(path string) (Sink, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(path, ".csv") {
		s := NewCSV(f)
		return s, func() error {
			err := s.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}, nil
	}
	s := NewJSONL(f)
	return s, func() error {
		err := s.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// Sub returns cur - prev per key, dropping keys whose delta is zero; it
// converts cumulative Recorder totals into per-epoch deltas. Keys absent
// from prev count from zero.
func Sub(cur, prev map[string]uint64) map[string]uint64 {
	if len(cur) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(cur))
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// String renders an event compactly for logs and error messages.
func (ev Event) String() string {
	b, err := json.Marshal(ev)
	if err != nil {
		return fmt.Sprintf("telemetry.Event{%s}", ev.Type)
	}
	return string(b)
}
