package serve

import (
	"context"
	"sync"
)

// hubEvent is one server-sent event: a monotone ID (the SSE `id:`
// field, so clients can resume with Last-Event-ID), an event name, and
// a single-line JSON payload.
type hubEvent struct {
	id   int
	name string
	data string
}

// hub is a per-job event channel with replay: it buffers every
// published event (up to max, oldest dropped first) so a subscriber
// attaching mid-run — or after the job finished — receives the full
// retained history before live events. Publish never blocks on slow
// subscribers: consumers pull at their own pace via next.
type hub struct {
	mu      sync.Mutex
	max     int             // immutable after newHub
	base    int             // guarded by mu; id of events[0]
	events  []hubEvent      // guarded by mu
	waiters []chan struct{} // guarded by mu
	closed  bool            // guarded by mu
}

// eventBuffer caps each job's SSE replay buffer, sized for a full
// laptop-scale run's epoch stream.
const eventBuffer = 8192

// newHub returns a hub retaining at most max events.
func newHub(max int) *hub {
	return &hub{max: max}
}

// publish appends an event and wakes blocked subscribers. Publishing to
// a closed hub is a no-op (late telemetry after a terminal state).
func (h *hub) publish(name, data string) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.events = append(h.events, hubEvent{id: h.base + len(h.events), name: name, data: data})
	if len(h.events) > h.max {
		drop := len(h.events) - h.max
		h.events = append(h.events[:0], h.events[drop:]...)
		h.base += drop
	}
	h.wakeLocked()
	h.mu.Unlock()
}

// close marks the stream complete and releases blocked subscribers.
func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	h.wakeLocked()
	h.mu.Unlock()
}

func (h *hub) wakeLocked() {
	for _, w := range h.waiters {
		close(w)
	}
	h.waiters = nil
}

// next returns the first retained event with id >= from. It blocks
// until one is published, the hub closes (ok=false: stream complete),
// or ctx is done (err). If the requested position was trimmed from the
// replay buffer, next skips forward to the oldest retained event.
func (h *hub) next(ctx context.Context, from int) (ev hubEvent, ok bool, err error) {
	for {
		h.mu.Lock()
		if from < h.base {
			from = h.base
		}
		if from < h.base+len(h.events) {
			ev := h.events[from-h.base]
			h.mu.Unlock()
			return ev, true, nil
		}
		if h.closed {
			h.mu.Unlock()
			return hubEvent{}, false, nil
		}
		w := make(chan struct{})
		h.waiters = append(h.waiters, w)
		h.mu.Unlock()
		select {
		case <-w:
		case <-ctx.Done():
			return hubEvent{}, false, ctx.Err()
		}
	}
}

// len returns the number of retained events.
func (h *hub) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}
