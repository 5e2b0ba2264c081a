package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metricz"
)

// The cluster top header counts each outstanding lease once: the
// coordinator's lease table and the workers' held-lease gauges describe
// the same leases, so summing both would double them.
func TestRenderFleetCountsLeasesOnce(t *testing.T) {
	coord := metricz.Snapshot{
		UptimeSeconds: 10,
		Gauges: map[string]float64{
			"esteem_cluster_workers_live":       2,
			"esteem_cluster_leases_outstanding": 2,
		},
		Counters: map[string]uint64{"esteem_serve_sims_executed_total": 0},
	}
	worker := func(sims uint64) metricz.Snapshot {
		return metricz.Snapshot{
			UptimeSeconds: 10,
			Gauges:        map[string]float64{"esteem_worker_leases_held": 1},
			Counters: map[string]uint64{
				"esteem_worker_sims_computed_total":  sims,
				"esteem_worker_tasks_executed_total": sims,
				"esteem_worker_store_hits_total":     1,
				"esteem_worker_store_misses_total":   3,
			},
		}
	}
	view := cluster.FleetView{Self: "http://coord", Fleet: metricz.NewSnapshot(0, nil)}
	for _, m := range []struct {
		url  string
		snap metricz.Snapshot
	}{{"http://coord", coord}, {"http://w1", worker(4)}, {"http://w2", worker(6)}} {
		snap := m.snap
		view.Members = append(view.Members, cluster.MemberMetrics{URL: m.url, Metrics: &snap})
		metricz.Merge(&view.Fleet, snap)
	}

	var out bytes.Buffer
	renderFleet(&out, view, map[string]uint64{}, 0)
	header, rows, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(header, "members 3/3 reachable") || !strings.Contains(header, "workers 2 ") {
		t.Errorf("header: %q", header)
	}
	if !strings.Contains(header, "leases 2 ") {
		t.Errorf("header should count 2 outstanding leases: %q", header)
	}
	// Per-member rows keep each node's own gauge; w1 computed 4 sims
	// over 10s of uptime with a 25% store hit rate.
	for _, want := range []string{"coord", "w1", "w2", "0.4  25.0%"} {
		if !strings.Contains(rows, want) {
			t.Errorf("rows missing %q:\n%s", want, rows)
		}
	}
}
