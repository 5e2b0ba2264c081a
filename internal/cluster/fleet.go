// Fleet metrics aggregation: GET /v1/cluster/metrics pulls every live
// member's JSON metrics snapshot, merges them into fleet totals with
// internal/metricz, and serves the result as Prometheus text or JSON
// (?format=json).
package cluster

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/metricz"
)

// MemberMetrics is one member's row in a fleet view: its snapshot, or
// the error that prevented fetching one (unreachable members are
// reported, not silently excluded — but their zeros don't pollute the
// fleet sums).
type MemberMetrics struct {
	URL     string            `json:"url"`
	Error   string            `json:"error,omitempty"`
	Metrics *metricz.Snapshot `json:"metrics,omitempty"`
}

// FleetView is the JSON shape of GET /v1/cluster/metrics?format=json.
type FleetView struct {
	Self    string           `json:"self"`
	Members []MemberMetrics  `json:"members"`
	Fleet   metricz.Snapshot `json:"fleet"`
}

// FleetMetrics fetches every live member's snapshot in parallel and
// returns the merged view. Fetch failures degrade to per-member Error
// fields; the fleet totals cover reachable members only.
func (c *Coordinator) FleetMetrics(ctx context.Context) FleetView {
	members := c.MemberURLs()
	view := FleetView{
		Self:    c.cfg.Self,
		Members: make([]MemberMetrics, len(members)),
		Fleet:   metricz.NewSnapshot(0, nil),
	}
	var wg sync.WaitGroup
	for i, u := range members {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			view.Members[i] = MemberMetrics{URL: u}
			m, err := metricz.Scrape(ctx, c.cfg.Client, u)
			if err != nil {
				view.Members[i].Error = err.Error()
				return
			}
			view.Members[i].Metrics = &m
		}(i, u)
	}
	wg.Wait()
	for _, m := range view.Members {
		if m.Metrics != nil {
			metricz.Merge(&view.Fleet, *m.Metrics)
		}
	}
	return view
}

func (c *Coordinator) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	view := c.FleetMetrics(r.Context())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeFleetText(w, view)
}

// writeFleetText renders the Prometheus text view: per family, the
// fleet aggregate under the original (unlabeled) name — so single-node
// scrapes and the smoke tests' `awk '$1 == metric'` keep working —
// then each reachable member's sample labeled {node="URL"}.
func writeFleetText(w io.Writer, view FleetView) error {
	series := view.Fleet.Series()
	reachable := 0
	for _, m := range view.Members {
		if m.Metrics != nil {
			reachable++
			for _, x := range m.Metrics.Series() {
				x.Node = m.URL
				series = append(series, x)
			}
		}
	}
	// Stable: each family keeps its aggregate first, members in order.
	sort.SliceStable(series, func(i, j int) bool { return series[i].Name < series[j].Name })
	return metricz.WriteText(w, append([]metricz.Series{
		metricz.Gauge("esteem_fleet_members", "Live cluster members.", float64(len(view.Members))),
		metricz.Gauge("esteem_fleet_members_reachable", "Members whose metrics snapshot was fetched.", float64(reachable)),
		metricz.Gauge("esteem_fleet_uptime_seconds", "Uptime of the fleet's oldest reachable member.", view.Fleet.UptimeSeconds),
	}, series...))
}
