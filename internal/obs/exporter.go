package obs

import (
	"time"

	"smthill/internal/telemetry"
)

// SinkExporter bridges spans back into the PR 2 telemetry stream: every
// recorded span becomes one flat telemetry.Event (Type "span"), so the
// JSONL/CSV sinks behind telemetry.OpenSink — and every jq recipe built
// on them — work on traces too. Wire it as TracerConfig.Exporter.
func SinkExporter(sink telemetry.Sink) func(SpanData) {
	if sink == nil {
		return nil
	}
	return func(d SpanData) {
		ev := telemetry.Event{
			Type:    "span",
			Run:     d.Name,
			Epoch:   telemetry.None,
			Kind:    d.Kind,
			Thread:  telemetry.None,
			Key:     d.Attrs["key"],
			Seconds: time.Duration(d.EndNS - d.StartNS).Seconds(),
			Trace:   d.Trace,
			Span:    d.Span,
			Parent:  d.Parent,
			Status:  d.Status,
			Node:    d.Node,
			Attrs:   d.Attrs,
		}
		sink.Emit(ev)
	}
}
