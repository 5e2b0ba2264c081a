package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metricz"
)

func TestFleetMetricsAggregatesMembers(t *testing.T) {
	// Two synthetic members serving metrics snapshots, plus an unreachable
	// third registered but then torn down.
	mkMember := func(sims uint64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" || r.URL.Query().Get("format") != "json" {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(metricz.Snapshot{
				UptimeSeconds: 1,
				Counters:      map[string]uint64{"esteem_worker_sims_computed_total": sims},
				Gauges:        map[string]float64{"esteem_worker_held_leases": 1},
				Histograms: map[string]metricz.Histogram{
					"esteem_wait_seconds": {Count: 1, SumSeconds: 0.25, Buckets: []metricz.Bucket{{LE: 1, Count: 1}}},
				},
			})
		}))
	}
	m1, m2 := mkMember(3), mkMember(4)
	defer m1.Close()
	defer m2.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	// The coordinator's Self must also answer /metrics: reuse m1 as
	// self so the fleet is {m1(self), m2, dead}.
	c, err := NewCoordinator(CoordinatorConfig{Self: m1.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.heartbeat(m2.URL, nil, nil)
	c.heartbeat(deadURL, nil, nil)

	view := c.FleetMetrics(context.Background())
	if len(view.Members) != 3 {
		t.Fatalf("members = %d, want 3", len(view.Members))
	}
	var gotErr bool
	for _, m := range view.Members {
		if m.URL == deadURL {
			gotErr = m.Error != "" && m.Metrics == nil
		}
	}
	if !gotErr {
		t.Errorf("dead member not reported as error: %+v", view.Members)
	}
	if got := view.Fleet.Counters["esteem_worker_sims_computed_total"]; got != 7 {
		t.Errorf("fleet sims = %d, want 7", got)
	}
	if got := view.Fleet.Gauges["esteem_worker_held_leases"]; got != 2 {
		t.Errorf("fleet held leases = %g, want 2", got)
	}
	if h := view.Fleet.Histograms["esteem_wait_seconds"]; h.Count != 2 || h.SumSeconds != 0.5 {
		t.Errorf("fleet histogram = %+v", h)
	}

	// Text exposition: unlabeled fleet aggregate (awk-compatible) plus
	// one labeled series per member.
	var buf bytes.Buffer
	writeFleetText(&buf, view)
	text := buf.String()
	for _, want := range []string{
		"esteem_fleet_members 3\n",
		"esteem_fleet_members_reachable 2\n",
		"# TYPE esteem_worker_sims_computed_total counter\nesteem_worker_sims_computed_total 7\n",
		"esteem_worker_sims_computed_total 7\n",
		`esteem_worker_sims_computed_total{node="` + m2.URL + `"} 4` + "\n",
		"esteem_wait_seconds_count 2\n",
		`esteem_wait_seconds_bucket{le="1"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet text missing %q:\n%s", want, text)
		}
	}
}

// The fleet view is the wire contract between mixed-version
// coordinators and clients: a view captured from an earlier release
// must decode into FleetView with no unknown fields and re-encode to
// the same document.
func TestFleetViewWireShape(t *testing.T) {
	raw, err := os.ReadFile("testdata/fleet_view.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var view FleetView
	if err := dec.Decode(&view); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(view)
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
		t.Errorf("fleet view changed across a decode/encode round trip:\n%s", again)
	}
}
