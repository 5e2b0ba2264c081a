// The series-name contract of every /metrics surface: each family a
// surface exports and its kind, on both the Prometheus text exposition
// and the JSON view (?format=json). Dashboards, the smoke scripts, the
// load generator and the benchmark all read these names, so a rename
// or removal on any surface fails here.
package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/tracez"
)

// seriesSet maps a family name to its kind: "gauge", "counter" or
// "histogram".
type seriesSet map[string]string

func kinds(kind string, names ...string) seriesSet {
	s := seriesSet{}
	for _, n := range names {
		s[n] = kind
	}
	return s
}

func union(sets ...seriesSet) seriesSet {
	u := seriesSet{}
	for _, s := range sets {
		for n, k := range s {
			u[n] = k
		}
	}
	return u
}

var (
	serveSeries = union(
		kinds("gauge",
			"esteem_serve_queue_depth",
			"esteem_serve_in_flight_jobs",
			"esteem_serve_sims_per_second",
			"esteem_serve_trace_spans_buffered",
		),
		kinds("counter",
			"esteem_serve_jobs_accepted_total",
			"esteem_serve_jobs_rejected_total",
			"esteem_serve_jobs_completed_total",
			"esteem_serve_jobs_failed_total",
			"esteem_serve_sims_executed_total",
			"esteem_serve_sim_instructions_total",
			"esteem_serve_cache_hits_total",
			"esteem_serve_cache_memory_hits_total",
			"esteem_serve_cache_disk_hits_total",
			"esteem_serve_cache_misses_total",
			"esteem_serve_cache_computes_total",
			"esteem_serve_cache_coalesced_total",
			"esteem_serve_prefix_checkpoint_hits_total",
			"esteem_serve_prefix_checkpoint_misses_total",
			"esteem_serve_prefix_checkpoint_saved_instructions_total",
			"esteem_serve_trace_spans_dropped_total",
			"esteem_serve_trace_unsampled_total",
			"esteem_serve_shard_remote_hits_total",
			"esteem_serve_shard_remote_misses_total",
			"esteem_serve_shard_repairs_total",
			"esteem_serve_shard_remote_puts_total",
			"esteem_serve_shard_remote_put_errors_total",
		),
		kinds("histogram",
			"esteem_serve_queue_wait_seconds",
			"esteem_serve_job_cache_hit_seconds",
			"esteem_serve_job_compute_seconds",
		),
	)
	coordinatorSeries = union(
		kinds("gauge",
			"esteem_cluster_workers_live",
			"esteem_cluster_leases_outstanding",
			"esteem_cluster_tasks_pending",
		),
		kinds("counter",
			"esteem_cluster_workers_joined_total",
			"esteem_cluster_workers_expired_total",
			"esteem_cluster_leases_issued_total",
			"esteem_cluster_leases_expired_total",
			"esteem_cluster_leases_reissued_total",
			"esteem_cluster_tasks_submitted_total",
			"esteem_cluster_tasks_completed_total",
			"esteem_cluster_tasks_failed_total",
			"esteem_cluster_spans_injected_total",
			"esteem_cluster_spans_dropped_total",
		),
	)
	workerSeries = union(
		kinds("gauge",
			"esteem_worker_leases_held",
			"esteem_worker_members",
		),
		kinds("counter",
			"esteem_worker_tasks_executed_total",
			"esteem_worker_tasks_failed_total",
			"esteem_worker_sims_computed_total",
			"esteem_worker_spans_shipped_total",
			"esteem_worker_events_dropped_total",
			"esteem_worker_store_hits_total",
			"esteem_worker_store_misses_total",
			"esteem_worker_shard_remote_hits_total",
			"esteem_worker_shard_remote_misses_total",
			"esteem_worker_shard_repairs_total",
			"esteem_worker_shard_remote_puts_total",
			"esteem_worker_shard_remote_put_errors_total",
		),
	)
	// fleetTextSeries are the fleet-wide gauges only the fleet's text
	// exposition carries (the JSON view has the member list instead).
	fleetTextSeries = kinds("gauge",
		"esteem_fleet_members",
		"esteem_fleet_members_reachable",
		"esteem_fleet_uptime_seconds",
	)
)

// diffNames reports the names missing from got and the unexpected ones.
func diffNames(t *testing.T, surface string, want, got map[string]bool) {
	t.Helper()
	var missing, extra []string
	for n := range want {
		if !got[n] {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if !want[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("%s: missing series %v", surface, missing)
	}
	if len(extra) > 0 {
		t.Errorf("%s: unexpected series %v", surface, extra)
	}
}

// checkText checks a text exposition's sample names against want
// (histograms as their _bucket/_sum/_count samples) and every # TYPE
// line's kind. requireTypes demands a # TYPE line for every family.
func checkText(t *testing.T, surface, text string, want seriesSet, requireTypes bool) {
	t.Helper()
	wantSamples := map[string]bool{}
	for n, k := range want {
		if k == "histogram" {
			wantSamples[n+"_bucket"] = true
			wantSamples[n+"_sum"] = true
			wantSamples[n+"_count"] = true
		} else {
			wantSamples[n] = true
		}
	}
	gotSamples := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("%s: malformed TYPE line %q", surface, line)
				continue
			}
			if want[f[2]] != f[3] {
				t.Errorf("%s: %s typed %q, want %q", surface, f[2], f[3], want[f[2]])
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		gotSamples[line[:strings.IndexAny(line, "{ ")]] = true
	}
	diffNames(t, surface+" text", wantSamples, gotSamples)
	if requireTypes {
		for n := range want {
			if !typed[n] {
				t.Errorf("%s: no # TYPE line for %s", surface, n)
			}
		}
	}
}

// jsonSnapshot decodes a /metrics?format=json body generically, so the
// contract holds whatever Go type serves it.
type jsonSnapshot struct {
	Gauges     map[string]json.RawMessage `json:"gauges"`
	Counters   map[string]json.RawMessage `json:"counters"`
	Histograms map[string]json.RawMessage `json:"histograms"`
}

func checkJSON(t *testing.T, surface string, snap jsonSnapshot, want seriesSet) {
	t.Helper()
	for kind, m := range map[string]map[string]json.RawMessage{
		"gauge": snap.Gauges, "counter": snap.Counters, "histogram": snap.Histograms,
	} {
		if m == nil {
			t.Errorf("%s json: %ss map absent", surface, kind)
		}
		wantNames, gotNames := map[string]bool{}, map[string]bool{}
		for n, k := range want {
			if k == kind {
				wantNames[n] = true
			}
		}
		for n := range m {
			gotNames[n] = true
		}
		diffNames(t, surface+" json "+kind+"s", wantNames, gotNames)
	}
}

func httpBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return b
}

func TestMetricsSeriesContract(t *testing.T) {
	standalone := newTestServer(t, nil)
	checkText(t, "serve", do(t, standalone, "GET", "/metrics", "").Body.String(), serveSeries, true)
	var snap jsonSnapshot
	if err := json.Unmarshal(do(t, standalone, "GET", "/metrics?format=json", "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	checkJSON(t, "serve", snap, serveSeries)

	// A coordinator-mode server with one joined worker: the coordinator
	// surface, the worker surface and the fleet view over both.
	_, coord, coordURL := startClusterServer(t, tracez.New(tracez.Config{Seed: 1}))
	ctx, cancel := context.WithCancel(context.Background())
	workerURL, done := startClusterWorker(t, ctx, coordURL, 2)
	defer func() {
		cancel()
		<-done
	}()
	for deadline := time.Now().Add(10 * time.Second); len(coord.MemberURLs()) < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker did not join")
		}
	}
	coordWant := union(serveSeries, coordinatorSeries)

	checkText(t, "coordinator", string(httpBody(t, coordURL+"/metrics")), coordWant, true)
	snap = jsonSnapshot{}
	if err := json.Unmarshal(httpBody(t, coordURL+"/metrics?format=json"), &snap); err != nil {
		t.Fatal(err)
	}
	checkJSON(t, "coordinator", snap, coordWant)

	checkText(t, "worker", string(httpBody(t, workerURL+"/metrics")), workerSeries, true)
	snap = jsonSnapshot{}
	if err := json.Unmarshal(httpBody(t, workerURL+"/metrics?format=json"), &snap); err != nil {
		t.Fatal(err)
	}
	checkJSON(t, "worker", snap, workerSeries)

	fleetWant := union(coordWant, workerSeries)
	checkText(t, "fleet", string(httpBody(t, coordURL+"/v1/cluster/metrics")), union(fleetWant, fleetTextSeries), false)
	var fleet struct {
		Fleet   jsonSnapshot `json:"fleet"`
		Members []struct {
			URL     string        `json:"url"`
			Error   string        `json:"error"`
			Metrics *jsonSnapshot `json:"metrics"`
		} `json:"members"`
	}
	if err := json.Unmarshal(httpBody(t, coordURL+"/v1/cluster/metrics?format=json"), &fleet); err != nil {
		t.Fatal(err)
	}
	checkJSON(t, "fleet", fleet.Fleet, fleetWant)
	if len(fleet.Members) != 2 {
		t.Fatalf("fleet members = %d, want 2", len(fleet.Members))
	}
	for _, m := range fleet.Members {
		if m.Metrics == nil {
			t.Fatalf("fleet member %s unreachable: %s", m.URL, m.Error)
		}
		want := workerSeries
		if m.URL == coordURL {
			want = coordWant
		}
		checkJSON(t, "fleet member "+m.URL, *m.Metrics, want)
	}
}
