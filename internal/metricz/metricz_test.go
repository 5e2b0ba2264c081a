package metricz

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
)

func TestMerge(t *testing.T) {
	dst := Snapshot{
		UptimeSeconds: 10,
		Gauges:        map[string]float64{"g": 1},
		Counters:      map[string]uint64{"c": 5},
		Histograms: map[string]Histogram{
			"h": {Count: 2, SumSeconds: 0.5, Buckets: []Bucket{{LE: 0.1, Count: 1}, {LE: 1, Count: 2}}},
		},
	}
	src := Snapshot{
		UptimeSeconds: 30,
		Gauges:        map[string]float64{"g": 2, "g2": 7},
		Counters:      map[string]uint64{"c": 3, "c2": 1},
		Histograms: map[string]Histogram{
			"h": {Count: 4, SumSeconds: 1.5, Buckets: []Bucket{{LE: 0.1, Count: 3}, {LE: 1, Count: 4}}},
		},
	}
	Merge(&dst, src)
	if dst.UptimeSeconds != 30 {
		t.Errorf("uptime = %g, want max 30", dst.UptimeSeconds)
	}
	if dst.Gauges["g"] != 3 || dst.Gauges["g2"] != 7 {
		t.Errorf("gauges = %v", dst.Gauges)
	}
	if dst.Counters["c"] != 8 || dst.Counters["c2"] != 1 {
		t.Errorf("counters = %v", dst.Counters)
	}
	h := dst.Histograms["h"]
	if h.Count != 6 || h.SumSeconds != 2 {
		t.Errorf("histogram count/sum = %d/%g, want 6/2", h.Count, h.SumSeconds)
	}
	want := []Bucket{{LE: 0.1, Count: 4}, {LE: 1, Count: 6}}
	if !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("buckets = %v, want %v", h.Buckets, want)
	}
}

// Histograms with different bounds merge over the union of bounds and
// stay cumulative: a side without a bound contributes its count at its
// next lower one.
func TestMergeDifferingBounds(t *testing.T) {
	dst := NewSnapshot(0, nil)
	Merge(&dst, Snapshot{Histograms: map[string]Histogram{
		"h": {Count: 3, Buckets: []Bucket{{LE: 0.1, Count: 1}, {LE: 1, Count: 2}}},
	}})
	Merge(&dst, Snapshot{Histograms: map[string]Histogram{
		"h": {Count: 5, Buckets: []Bucket{{LE: 0.5, Count: 4}, {LE: 1, Count: 5}, {LE: 10, Count: 5}}},
	}})
	want := []Bucket{{LE: 0.1, Count: 1}, {LE: 0.5, Count: 5}, {LE: 1, Count: 7}, {LE: 10, Count: 7}}
	if got := dst.Histograms["h"]; got.Count != 8 || !reflect.DeepEqual(got.Buckets, want) {
		t.Errorf("merged = %+v, want count 8 buckets %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	// 10 samples: 4 in (0, 0.1], 4 in (0.1, 1], 2 above 1 (+Inf).
	h := Histogram{
		Count:      10,
		SumSeconds: 5,
		Buckets:    []Bucket{{LE: 0.1, Count: 4}, {LE: 1, Count: 8}},
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.2, 0.05},  // rank 2 of 4 in the first bucket: half of 0.1
		{0.4, 0.1},   // rank 4: exactly the first bound
		{0.5, 0.325}, // rank 5: a quarter into (0.1, 1]
		{0.8, 1},     // rank 8: exactly the second bound
		{0.99, 1},    // in the +Inf bucket: clamps to the last bound
		{1, 1},
		{0, 0},
	}
	for _, c := range cases {
		if got := Quantile(h, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile(Histogram{}, 0.5); got != 0 {
		t.Errorf("empty histogram: got %g, want 0", got)
	}
	// A bucket with zero in-bucket samples must not divide by zero.
	flat := Histogram{Count: 2, Buckets: []Bucket{{LE: 0.1, Count: 2}, {LE: 1, Count: 2}}}
	if got := Quantile(flat, 1); got != 0.1 {
		t.Errorf("flat tail: got %g, want 0.1", got)
	}
}

func TestHistogramFormat(t *testing.T) {
	r := NewRecorder([]float64{0.1, 1})
	r.Observe(0.05)
	r.Observe(0.5)
	r.Observe(5)
	var b bytes.Buffer
	if err := WriteText(&b, []Series{Hist("x_seconds", "help text", r.Snapshot())}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_seconds help text
# TYPE x_seconds histogram
x_seconds_bucket{le="0.1"} 1
x_seconds_bucket{le="1"} 2
x_seconds_bucket{le="+Inf"} 3
x_seconds_sum 5.55
x_seconds_count 3
`
	if b.String() != want {
		t.Fatalf("histogram output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// Each family's run renders as one group: HELP (only when known) and
// TYPE once, then every sample, node-labeled ones included.
func TestWriteTextGroupsRuns(t *testing.T) {
	h := Histogram{Count: 2, SumSeconds: 0.5, Buckets: []Bucket{{LE: 0.1, Count: 1}}}
	var out bytes.Buffer
	WriteText(&out, []Series{
		Gauge("up", "Members up.", 2),
		Counter("c_total", "", 5),
		{Name: "c_total", Node: "http://a", Kind: KindCounter, Total: 2},
		Hist("h", "", h),
		{Name: "h", Node: "http://a", Kind: KindHistogram, Hist: h},
	})
	want := `# HELP up Members up.
# TYPE up gauge
up 2
# TYPE c_total counter
c_total 5
c_total{node="http://a"} 2
# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 2
h_sum 0.5
h_count 2
h_bucket{node="http://a",le="0.1"} 1
h_bucket{node="http://a",le="+Inf"} 2
h_sum{node="http://a"} 0.5
h_count{node="http://a"} 2
`
	if out.String() != want {
		t.Fatalf("text:\n%s\nwant:\n%s", out.String(), want)
	}
}

// Property: merging the snapshots of two recorders fed disjoint samples
// equals one recorder fed both, bucket for bucket, in Count and in
// SumSeconds, so every quantile agrees too. Samples are multiples of
// 1/1024 so float sums are exact in any order.
func TestMergeMatchesSingleRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		left, right, both := NewRecorder(LatencyBuckets), NewRecorder(LatencyBuckets), NewRecorder(LatencyBuckets)
		for i, n := 0, rng.Intn(300); i < n; i++ {
			v := float64(rng.Intn(1<<17)) / 1024 // 0 .. 128 s, past the last bound
			if rng.Intn(2) == 0 {
				left.Observe(v)
			} else {
				right.Observe(v)
			}
			both.Observe(v)
		}
		merged := NewSnapshot(0, nil)
		Merge(&merged, NewSnapshot(0, []Series{Hist("h", "", left.Snapshot())}))
		Merge(&merged, NewSnapshot(0, []Series{Hist("h", "", right.Snapshot())}))
		got, want := merged.Histograms["h"], both.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged %+v, single %+v", trial, got, want)
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
			if Quantile(got, q) != Quantile(want, q) {
				t.Fatalf("trial %d: q=%g merged %g, single %g", trial, q, Quantile(got, q), Quantile(want, q))
			}
		}
	}
}

// Concurrent observers and snapshotters: every snapshot is internally
// consistent, and the final one counts every observation (run under
// -race).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(LatencyBuckets)
	const writers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Observe(float64(w*each+i) / 1000)
			}
		}(w)
	}
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := r.Snapshot()
			if last := h.Buckets[len(h.Buckets)-1].Count; last > h.Count {
				t.Errorf("bucket count %d exceeds total %d", last, h.Count)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapped
	if h := r.Snapshot(); h.Count != writers*each {
		t.Fatalf("count = %d, want %d", h.Count, writers*each)
	}
}

// NewSnapshot always yields non-nil maps, so an empty kind is {} on the
// wire rather than null.
func TestNewSnapshotEmptyKinds(t *testing.T) {
	b, err := json.Marshal(NewSnapshot(1, []Series{Counter("c_total", "", 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"uptime_seconds":1,"gauges":{},"counters":{"c_total":1},"histograms":{}}`; string(b) != want {
		t.Errorf("got %s, want %s", b, want)
	}
}

// A serve node's snapshot captured from an earlier release must decode
// into Snapshot with no unknown fields and re-encode to the same
// document: mixed-version fleets and the benchmark rely on that shape.
func TestSnapshotWireShape(t *testing.T) {
	raw, err := os.ReadFile("testdata/serve_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	if len(s.Gauges) == 0 || len(s.Counters) == 0 || len(s.Histograms) == 0 {
		t.Fatalf("fixture decoded incompletely: %+v", s)
	}
	again, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot changed across a decode/encode round trip:\n%s", again)
	}
	// The series list round-trips the snapshot too.
	if back := NewSnapshot(s.UptimeSeconds, s.Series()); !reflect.DeepEqual(back, s) {
		t.Errorf("NewSnapshot(Series()) differs from the snapshot")
	}
}
