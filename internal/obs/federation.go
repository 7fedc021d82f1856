package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Federator turns a coordinator into a single scrape point for the
// whole fleet: it polls each registered worker's /metrics on the
// heartbeat cadence, retains the parsed series per node, and renders
// /metrics/cluster — every node's series re-labeled with node="<id>",
// followed by name-wise aggregates across fresh nodes. Nodes whose
// scrape is stale (suspect peers, scrape failures) are marked stale and
// excluded from aggregates, so the aggregate is always a sum over nodes
// the coordinator currently believes.
//
// Clocks are injected per call (the coordinator already owns an
// injectable clock for heartbeat liveness), keeping federation
// deterministic under test.
type Federator struct {
	client *http.Client

	mu    sync.Mutex
	nodes map[string]*nodeScrape // guarded by mu
}

type nodeScrape struct {
	id       string
	url      string
	at       time.Time // last successful scrape
	tried    time.Time // last attempt
	err      string
	series   []FedSeries
	scrapes  uint64
	failures uint64
}

// FedSeries is one parsed sample from a node's exposition.
type FedSeries struct {
	// Name is the metric name.
	Name string
	// Labels is the raw rendered label body (no braces), "" when
	// unlabeled.
	Labels string
	// Value is the sample value.
	Value float64
}

// NewFederator returns a federator scraping with client (nil selects
// http.DefaultClient).
func NewFederator(client *http.Client) *Federator {
	if client == nil {
		client = http.DefaultClient
	}
	return &Federator{client: client, nodes: make(map[string]*nodeScrape)}
}

// Due reports whether node id's last scrape attempt is older than
// every — the heartbeat-cadence gate that keeps one scrape in flight
// per beat rather than per heartbeat-retry burst.
func (f *Federator) Due(id string, now time.Time, every time.Duration) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[id]
	return !ok || now.Sub(n.tried) >= every
}

// Scrape fetches metricsURL and retains the parsed series under node
// id. Errors are retained (the node renders stale) and returned for
// logging.
func (f *Federator) Scrape(id, metricsURL string, now time.Time) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	n, ok := f.nodes[id]
	if !ok {
		n = &nodeScrape{id: id}
		f.nodes[id] = n
	}
	n.url = metricsURL
	n.tried = now
	f.mu.Unlock()

	series, err := fetchSeries(f.client, metricsURL)

	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		n.err = err.Error()
		n.failures++
		return err
	}
	n.series, n.at, n.err = series, now, ""
	n.scrapes++
	return nil
}

// Forget drops a node from the federation view (a peer that
// deregistered or was reaped long ago).
func (f *Federator) Forget(id string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.nodes, id)
	f.mu.Unlock()
}

func fetchSeries(client *http.Client, url string) ([]FedSeries, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return ParseExposition(io.LimitReader(resp.Body, 4<<20))
}

// ParseExposition parses Prometheus text exposition into series,
// skipping comments and unparseable lines.
func ParseExposition(r io.Reader) ([]FedSeries, error) {
	var out []FedSeries
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		ident := line[:sp]
		name, labels := ident, ""
		if i := strings.IndexByte(ident, '{'); i >= 0 {
			if !strings.HasSuffix(ident, "}") {
				continue
			}
			name, labels = ident[:i], ident[i+1:len(ident)-1]
		}
		if !validName(name) {
			continue
		}
		out = append(out, FedSeries{Name: name, Labels: labels, Value: val})
	}
	return out, sc.Err()
}

// NodeView is one node's federation status plus its last-known series.
type NodeView struct {
	ID     string
	Alive  bool
	Stale  bool
	AgeSec float64
	Err    string
	Series []FedSeries
}

// view assembles the per-node state for the given peer set. peers maps
// node id -> alive; maxAge marks scrapes older than it stale.
func (f *Federator) view(peers map[string]bool, now time.Time, maxAge time.Duration) []NodeView {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]NodeView, 0, len(ids))
	for _, id := range ids {
		v := NodeView{ID: id, Alive: peers[id], Stale: true}
		if n, ok := f.nodes[id]; ok && !n.at.IsZero() {
			v.AgeSec = now.Sub(n.at).Seconds()
			v.Err = n.err
			v.Series = n.series
			v.Stale = !v.Alive || now.Sub(n.at) > maxAge
		}
		out = append(out, v)
	}
	return out
}

// WriteCluster renders the cluster exposition: federation meta-series
// (node up/stale/scrape age), every fresh node's series with a node
// label prepended, then aggregated sums across fresh nodes under the
// original names. Stale nodes contribute only their meta-series, so a
// suspect peer's last numbers can't silently pollute the aggregate.
func (f *Federator) WriteCluster(w io.Writer, peers map[string]bool, now time.Time, maxAge time.Duration) {
	if f == nil {
		return
	}
	views := f.view(peers, now, maxAge)
	for _, v := range views {
		up := 0
		if v.Alive {
			up = 1
		}
		stale := 0
		if v.Stale {
			stale = 1
		}
		fmt.Fprintf(w, "smtserved_cluster_node_up{node=%q} %d\n", v.ID, up)
		fmt.Fprintf(w, "smtserved_cluster_node_stale{node=%q} %d\n", v.ID, stale)
		fmt.Fprintf(w, "smtserved_cluster_scrape_age_seconds{node=%q} %s\n", v.ID, formatMetricValue(v.AgeSec))
	}
	type aggKey struct{ name, labels string }
	agg := make(map[aggKey]float64)
	var order []aggKey
	for _, v := range views {
		if v.Stale {
			continue
		}
		for _, s := range v.Series {
			fmt.Fprintf(w, "%s%s %s\n", s.Name, wrap(joinLabels(`node=`+strconv.Quote(v.ID), s.Labels)), formatMetricValue(s.Value))
			k := aggKey{s.Name, s.Labels}
			if _, ok := agg[k]; !ok {
				order = append(order, k)
			}
			agg[k] += s.Value
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].labels < order[j].labels
	})
	for _, k := range order {
		fmt.Fprintf(w, "%s%s %s\n", k.name, wrap(k.labels), formatMetricValue(agg[k]))
	}
}

// Summary returns the cluster roll-up for /healthz: node counts by
// freshness and the total series last seen across fresh nodes.
func (f *Federator) Summary(peers map[string]bool, now time.Time, maxAge time.Duration) map[string]any {
	if f == nil {
		return nil
	}
	views := f.view(peers, now, maxAge)
	fresh, stale, series := 0, 0, 0
	for _, v := range views {
		if v.Stale {
			stale++
			continue
		}
		fresh++
		series += len(v.Series)
	}
	return map[string]any{
		"cluster_nodes":       len(views),
		"cluster_nodes_fresh": fresh,
		"cluster_nodes_stale": stale,
		"cluster_series":      series,
	}
}
