// A strict checker for the Prometheus text exposition, run over every
// /metrics surface the repo serves: a serve node, a coordinator, a
// worker and the coordinator's fleet view.
package metricz_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/castore"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// checkExposition enforces the layout the text format requires: each
// family is one contiguous group, its # TYPE line comes before its
// samples, histogram buckets are cumulative (never decreasing) per
// label set, and each label set's le="+Inf" bucket equals its _count.
func checkExposition(text string) error {
	types := map[string]string{} // family -> kind
	closed := map[string]bool{}  // families whose group has ended
	sampled := map[string]bool{} // families with a sample written
	cur := ""
	enter := func(fam string) error {
		if fam == cur {
			return nil
		}
		if closed[fam] {
			return fmt.Errorf("family %s reappears after %s", fam, cur)
		}
		closed[cur] = true
		cur = fam
		return nil
	}
	type labelSet struct{ fam, labels string }
	lastBucket := map[labelSet]float64{}
	inf := map[labelSet]float64{}
	count := map[labelSet]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				continue // a plain comment
			}
			if err := enter(f[2]); err != nil {
				return err
			}
			if f[1] == "TYPE" {
				if len(f) != 4 {
					return fmt.Errorf("malformed TYPE line %q", line)
				}
				if _, dup := types[f[2]]; dup {
					return fmt.Errorf("family %s typed twice", f[2])
				}
				if sampled[f[2]] {
					return fmt.Errorf("TYPE for %s after its samples", f[2])
				}
				types[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("sample %q: %v", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		}
		fam, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, s); base != name && types[base] == "histogram" {
				fam, suffix = base, s
			}
		}
		if types[fam] == "" {
			return fmt.Errorf("sample %s before any TYPE line for it", name)
		}
		if err := enter(fam); err != nil {
			return err
		}
		sampled[fam] = true
		switch suffix {
		case "_bucket":
			var le string
			var rest []string
			for _, l := range strings.Split(labels, ",") {
				if strings.HasPrefix(l, "le=") {
					le = strings.Trim(l[3:], `"`)
				} else {
					rest = append(rest, l)
				}
			}
			key := labelSet{fam, strings.Join(rest, ",")}
			if prev, ok := lastBucket[key]; ok && v < prev {
				return fmt.Errorf("%s{%s}: bucket le=%s count %g below the previous %g", fam, key.labels, le, v, prev)
			}
			lastBucket[key] = v
			if le == "+Inf" {
				inf[key] = v
			}
		case "_count":
			count[labelSet{fam, labels}] = v
		}
	}
	for key, n := range count {
		if got, ok := inf[key]; !ok || got != n {
			return fmt.Errorf("%s{%s}: le=\"+Inf\" bucket %g != _count %g", key.fam, key.labels, got, n)
		}
	}
	return nil
}

func TestCheckExpositionRejects(t *testing.T) {
	good := "# TYPE a counter\na 1\na{node=\"x\"} 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n" +
		"h_bucket{node=\"x\",le=\"1\"} 0\nh_bucket{node=\"x\",le=\"+Inf\"} 1\nh_sum{node=\"x\"} 3\nh_count{node=\"x\"} 1\n"
	if err := checkExposition(good); err != nil {
		t.Fatalf("well-formed text rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"family split":   "# TYPE a counter\n# TYPE b gauge\na 1\nb 1\na{node=\"x\"} 1\n",
		"no TYPE":        "a 1\n",
		"TYPE late":      "# TYPE a counter\na 1\n# TYPE a counter\n",
		"buckets dip":    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"+Inf != count":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",
		"no +Inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n",
	} {
		if err := checkExposition(bad); err == nil {
			t.Errorf("%s: accepted:\n%s", name, bad)
		}
	}
}

func getText(t *testing.T, url string) string {
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
	return string(b)
}

// TestSurfacesWellFormed runs the checker over a standalone serve
// node, a coordinator-mode serve node, a joined worker and the fleet
// view across them.
func TestSurfacesWellFormed(t *testing.T) {
	newServer := func(node string, coord *cluster.Coordinator) *serve.Server {
		store, err := castore.Open(t.TempDir(), 32)
		if err != nil {
			t.Fatal(err)
		}
		cfg := serve.Config{Store: store, Workers: 1, JobTimeout: time.Minute, Node: node}
		if coord != nil {
			cfg.Store = castore.NewSharded(store, node, coord.MemberURLs, 2, nil)
			cfg.Cluster = coord
		}
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	standalone := httptest.NewServer(newServer("", nil).Handler())
	defer standalone.Close()

	// The coordinator's advertised URL is only known once its listener
	// is up, so the handler is swapped in after assembly.
	var handler atomic.Value // http.Handler
	cs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer cs.Close()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Self: cs.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	handler.Store(newServer(cs.URL, coord).Handler())

	store, err := castore.Open(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	ws := httptest.NewServer(mux)
	defer ws.Close()
	w, err := cluster.NewWorker(cluster.WorkerConfig{Coordinator: cs.URL, Self: ws.URL, Local: store})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(mux)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	for deadline := time.Now().Add(10 * time.Second); len(coord.MemberURLs()) < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker did not join")
		}
	}

	for name, url := range map[string]string{
		"serve":       standalone.URL + "/metrics",
		"coordinator": cs.URL + "/metrics",
		"worker":      ws.URL + "/metrics",
		"fleet":       cs.URL + "/v1/cluster/metrics",
	} {
		text := getText(t, url)
		if err := checkExposition(text); err != nil {
			t.Errorf("%s: %v\n%s", name, err, text)
		}
	}
}
