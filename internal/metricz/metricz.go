// Package metricz is the one metrics model behind every /metrics
// surface — serve node, cluster worker and the coordinator's fleet
// view: the JSON snapshot, a histogram recorder, fleet merging,
// quantiles, the Prometheus text renderer and the JSON scrape client.
// It imports only the standard library, so every layer can share it.
//
// A surface builds one []Series per request from the counters it
// already keeps and renders it both ways: WriteText for the text
// exposition, NewSnapshot for the JSON view (?format=json).
package metricz

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Snapshot is the JSON shape of GET /metrics?format=json; map keys are
// the text exposition's series names. The JSON tags are the wire
// contract between mixed-version nodes.
type Snapshot struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Gauges        map[string]float64   `json:"gauges"`
	Counters      map[string]uint64    `json:"counters"`
	Histograms    map[string]Histogram `json:"histograms"`
}

// Histogram is one histogram's snapshot: cumulative bucket counts per
// upper bound (seconds), the total count and sum. The +Inf bucket is
// implied by Count.
type Histogram struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Bucket is one cumulative bucket: Count samples <= LE seconds.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Kind is a series' Prometheus type, as # TYPE names it.
type Kind string

const (
	KindGauge     Kind = "gauge"
	KindCounter   Kind = "counter"
	KindHistogram Kind = "histogram"
)

// Series is one family's current value: Kind selects which of Value,
// Total and Hist holds it. Help, when set, is rendered as # HELP; Node,
// when set, labels the text sample {node="<Node>"}.
type Series struct {
	Name, Help, Node string
	Kind             Kind
	Value            float64
	Total            uint64
	Hist             Histogram
}

// Gauge, Counter and Hist build one series of their kind.
func Gauge(name, help string, v float64) Series {
	return Series{Name: name, Help: help, Kind: KindGauge, Value: v}
}

func Counter(name, help string, v uint64) Series {
	return Series{Name: name, Help: help, Kind: KindCounter, Total: v}
}

func Hist(name, help string, h Histogram) Series {
	return Series{Name: name, Help: help, Kind: KindHistogram, Hist: h}
}

// NewSnapshot folds an unlabeled series list into the JSON view. Its
// maps are never nil, so an empty kind encodes as {} rather than null.
func NewSnapshot(uptime float64, series []Series) Snapshot {
	s := Snapshot{uptime, map[string]float64{}, map[string]uint64{}, map[string]Histogram{}}
	for _, x := range series {
		switch x.Kind {
		case KindGauge:
			s.Gauges[x.Name] = x.Value
		case KindCounter:
			s.Counters[x.Name] = x.Total
		case KindHistogram:
			s.Histograms[x.Name] = x.Hist
		}
	}
	return s
}

// Series lists the snapshot's series by name, without help text.
func (s Snapshot) Series() []Series {
	var out []Series
	for k, v := range s.Gauges {
		out = append(out, Gauge(k, "", v))
	}
	for k, v := range s.Counters {
		out = append(out, Counter(k, "", v))
	}
	for k, h := range s.Histograms {
		out = append(out, Hist(k, "", h))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LatencyBuckets are the shared upper bounds (seconds) of every latency
// histogram: 1ms to 60s, roughly geometric.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Recorder is a concurrency-safe fixed-bucket histogram.
type Recorder struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1; the last is the +Inf bucket
	sum    float64
}

// NewRecorder returns an empty recorder over sorted upper bounds.
func NewRecorder(bounds []float64) *Recorder {
	return &Recorder{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value (seconds).
func (r *Recorder) Observe(v float64) {
	i := sort.SearchFloat64s(r.bounds, v) // first bound >= v
	r.mu.Lock()
	r.counts[i]++
	r.sum += v
	r.mu.Unlock()
}

// Snapshot returns the recorder's cumulative view.
func (r *Recorder) Snapshot() Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := Histogram{SumSeconds: r.sum, Buckets: make([]Bucket, len(r.bounds))}
	for i, n := range r.counts {
		h.Count += n
		if i < len(r.bounds) {
			h.Buckets[i] = Bucket{LE: r.bounds[i], Count: h.Count}
		}
	}
	return h
}

// Merge folds src into dst: counters and gauges sum, histograms merge
// bucket-wise, and uptime takes the max (a fleet is as old as its
// oldest member). dst's maps must be non-nil, as NewSnapshot's are.
func Merge(dst *Snapshot, src Snapshot) {
	dst.UptimeSeconds = max(dst.UptimeSeconds, src.UptimeSeconds)
	for k, v := range src.Gauges {
		dst.Gauges[k] += v
	}
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	for k, h := range src.Histograms {
		dst.Histograms[k] = mergeHist(dst.Histograms[k], h)
	}
}

// mergeHist adds two histograms over the union of their bounds. At a
// bound only one side has, the other contributes its count at its next
// lower bound, so the sum stays cumulative.
func mergeHist(a, b Histogram) Histogram {
	out := Histogram{Count: a.Count + b.Count, SumSeconds: a.SumSeconds + b.SumSeconds}
	var i, j int
	var ca, cb uint64
	for i < len(a.Buckets) || j < len(b.Buckets) {
		le := math.Inf(1)
		if i < len(a.Buckets) {
			le = a.Buckets[i].LE
		}
		if j < len(b.Buckets) {
			le = min(le, b.Buckets[j].LE)
		}
		if i < len(a.Buckets) && a.Buckets[i].LE == le {
			ca, i = a.Buckets[i].Count, i+1
		}
		if j < len(b.Buckets) && b.Buckets[j].LE == le {
			cb, j = b.Buckets[j].Count, j+1
		}
		out.Buckets = append(out.Buckets, Bucket{LE: le, Count: ca + cb})
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of h in seconds the
// way Prometheus's histogram_quantile() does: linear interpolation
// within the first bucket reaching the target rank. Ranks in the
// implicit +Inf bucket clamp to the highest finite bound; an empty
// histogram reports 0.
func Quantile(h Histogram, q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 || q <= 0 {
		return 0
	}
	rank := min(q, 1) * float64(h.Count)
	lower := 0.0
	var below uint64
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			if b.Count == below {
				return b.LE
			}
			return lower + (b.LE-lower)*(rank-float64(below))/float64(b.Count-below)
		}
		lower, below = b.LE, b.Count
	}
	return h.Buckets[len(h.Buckets)-1].LE
}

// WriteText renders series in the Prometheus text format (0.0.4). A
// family's series must be adjacent: the first of each run writes the
// family's # HELP (when set) and # TYPE lines, so a fleet lists each
// family's unlabeled aggregate and then its per-node samples.
func WriteText(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	for i, s := range series {
		if i == 0 || s.Name != series[i-1].Name {
			if s.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, s.Help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
		}
		writeSample(bw, s)
	}
	return bw.Flush()
}

// writeSample writes one series' sample lines.
func writeSample(w io.Writer, s Series) {
	braced, labels := "", ""
	if s.Node != "" {
		labels = fmt.Sprintf("node=%q", s.Node)
		braced, labels = "{"+labels+"}", labels+","
	}
	switch s.Kind {
	case KindGauge:
		fmt.Fprintf(w, "%s%s %g\n", s.Name, braced, s.Value)
	case KindCounter:
		fmt.Fprintf(w, "%s%s %d\n", s.Name, braced, s.Total)
	case KindHistogram:
		for _, b := range s.Hist.Buckets {
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", s.Name, labels, strconv.FormatFloat(b.LE, 'g', -1, 64), b.Count)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", s.Name, labels, s.Hist.Count)
		fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", s.Name, braced, s.Hist.SumSeconds, s.Name, braced, s.Hist.Count)
	}
}

// Scrape fetches baseURL's GET /metrics?format=json, reading at most
// 1 MiB. The returned snapshot's maps are non-nil even when the node
// omitted or nulled one.
func Scrape(ctx context.Context, c *http.Client, baseURL string) (Snapshot, error) {
	out := NewSnapshot(0, nil)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(baseURL, "/")+"/metrics?format=json", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return out, fmt.Errorf("GET /metrics?format=json: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var s Snapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&s); err != nil {
		return out, fmt.Errorf("decoding metrics: %w", err)
	}
	Merge(&out, s)
	return out, nil
}
