package serve

import (
	"testing"

	"repro/internal/metricz"
)

// The fast spec must validate through the submission path, expand to
// exactly one unit, and key cache-hot/cold traffic off its seed.
func TestFastJobSpec(t *testing.T) {
	units1, err := buildUnits(FastJobSpec(1))
	if err != nil {
		t.Fatalf("FastJobSpec(1) rejected: %v", err)
	}
	if len(units1) != 1 {
		t.Fatalf("FastJobSpec expanded to %d units, want 1", len(units1))
	}
	again, err := buildUnits(FastJobSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if units1[0].Key != again[0].Key {
		t.Errorf("same seed produced different keys: %s vs %s", units1[0].Key, again[0].Key)
	}
	units2, err := buildUnits(FastJobSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if units1[0].Key == units2[0].Key {
		t.Errorf("distinct seeds share key %s; cold traffic would be warm", units1[0].Key)
	}
}

// The JSON metrics view mirrors the text exposition's series.
func TestMetricsSnapshotSeries(t *testing.T) {
	s := newTestServer(t, nil)
	v := s.MetricsSnapshot()
	for _, name := range []string{
		"esteem_serve_jobs_accepted_total",
		"esteem_serve_cache_hits_total",
		"esteem_serve_cache_misses_total",
		"esteem_serve_cache_coalesced_total",
		"esteem_serve_jobs_rejected_total",
	} {
		if _, ok := v.Counters[name]; !ok {
			t.Errorf("JSON metrics view missing counter %s", name)
		}
	}
	if _, ok := v.Gauges["esteem_serve_queue_depth"]; !ok {
		t.Error("JSON metrics view missing queue-depth gauge")
	}
	h, ok := v.Histograms["esteem_serve_queue_wait_seconds"]
	if !ok {
		t.Fatal("JSON metrics view missing queue-wait histogram")
	}
	if len(h.Buckets) != len(metricz.LatencyBuckets) {
		t.Errorf("histogram view has %d buckets, want %d", len(h.Buckets), len(metricz.LatencyBuckets))
	}
}
