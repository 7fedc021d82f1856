package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval of a traced run: the benchmark's own call into a
// layer, or an interval a layer reported (a sweep-observer job, a job
// view's queue and run times). Job groups the spans of one job or figure.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // End-Start minus what child spans cover
}

// spanLog keeps a traced run's spans in memory until writeFile. A nil
// log records nothing, so untraced rounds share the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished interval and returns its id (0 on a nil log).
func (l *spanLog) add(name, job string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds(),
	})
	return id
}

// open starts a span that close ends.
func (l *spanLog) open(name, job string, parent int) int {
	now := time.Now()
	return l.add(name, job, parent, now, now)
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = time.Since(l.t0).Seconds()
	l.mu.Unlock()
}

// selfTimes fills each span's Self: its duration minus the union of its
// children's intervals, clipped to it.
func selfTimes(spans []span) {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// writeFile writes the spans (with self times), per-name totals and the
// first traced round's CPU profile under dir, returning the trace path.
func (l *spanLog) writeFile(dir, workload string, seed uint64, prof stackShares) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	selfTimes(spans)

	type total struct {
		Count int     `json:"count"`
		Total float64 `json:"total_s"`
		Self  float64 `json:"self_s"`
	}
	byName := map[string]*total{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &total{}
			byName[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.Self
	}
	shares := map[string]float64{}
	for _, s := range prof.shares() {
		shares[s.name] = s.pct
	}
	out, err := json.MarshalIndent(struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		ByName    map[string]*total  `json:"by_name"`
		CPUShares map[string]float64 `json:"cpu_shares_pct"`
		Spans     []span             `json:"spans"`
	}{workload, seed, byName, shares, spans}, "", " ")
	if err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("trace-%s-%d", workload, seed))
	if err := os.WriteFile(base+".json", out, 0o644); err != nil {
		return "", err
	}
	if len(prof.raw) > 0 {
		if err := os.WriteFile(base+".pprof", prof.raw, 0o644); err != nil {
			return "", err
		}
	}
	return base + ".json", nil
}
