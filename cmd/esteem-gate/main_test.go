package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/load"
)

// benchOut is go-test output covering every tracked benchmark: two
// -count repetitions of CacheAccess, -N GOMAXPROCS suffixes, one
// sub-benchmark and one untracked benchmark.
const benchOut = `goos: linux
BenchmarkCacheAccess-8      	 1000	        60.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheAccess-8      	 1000	        50.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheNew-8         	 1000	    100000 ns/op	  701248 B/op	       7 allocs/op
BenchmarkActiveFraction-8   	 1000	         1.500 ns/op	       0 B/op	       0 allocs/op
BenchmarkRefreshWindow/rpv-8	 1000	      4000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimRunShort-8      	   10	   6000000 ns/op	  713000 B/op	      40 allocs/op
BenchmarkClusterTask        	 1000	    200000 ns/op	   54000 B/op	     554 allocs/op
BenchmarkGeneratorNext-8    	 1000	        10.00 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestReadBench(t *testing.T) {
	e, err := readBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkActiveFraction", "BenchmarkCacheAccess", "BenchmarkCacheNew",
		"BenchmarkClusterTask", "BenchmarkRefreshWindow/rpv", "BenchmarkSimRunShort",
	}
	if got := sortedNames(e.Benchmarks); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if p := e.Benchmarks["BenchmarkCacheAccess"]; p.NsOp != 50 {
		t.Errorf("-count repeats kept %g ns/op, want the best (50)", p.NsOp)
	}
	if p := e.Benchmarks["BenchmarkCacheNew"]; p.BOp != 701248 || p.AllocsOp != 7 || p.Iters != 1000 {
		t.Errorf("CacheNew parsed as %+v", p)
	}
	if e.CPUs == 0 || e.Go == "" || e.Date == "" {
		t.Errorf("entry not stamped with this host: %+v", e.host)
	}
}

func TestReadBenchMissingTracked(t *testing.T) {
	var in strings.Builder
	for _, line := range strings.Split(benchOut, "\n") {
		if !strings.HasPrefix(line, "BenchmarkClusterTask") {
			in.WriteString(line + "\n")
		}
	}
	_, err := readBench(strings.NewReader(in.String()))
	if err == nil || !strings.Contains(err.Error(), "BenchmarkClusterTask") {
		t.Fatalf("missing tracked benchmark not reported: %v", err)
	}
}

func TestCheckBench(t *testing.T) {
	base := simEntry{Benchmarks: map[string]point{
		"BenchmarkCacheAccess": {NsOp: 100, AllocsOp: 0},
		"BenchmarkCacheNew":    {NsOp: 100, AllocsOp: 7},
	}}
	cases := []struct {
		name string
		cur  map[string]point
		fail []string
		skip bool
	}{
		{"unchanged", base.Benchmarks, nil, false},
		{"+14% ns/op passes", map[string]point{"BenchmarkCacheAccess": {NsOp: 114}}, nil, false},
		{"+16% ns/op fails", map[string]point{"BenchmarkCacheAccess": {NsOp: 116}}, []string{"BenchmarkCacheAccess"}, false},
		{"any allocs/op increase fails", map[string]point{"BenchmarkCacheNew": {NsOp: 50, AllocsOp: 8}}, []string{"BenchmarkCacheNew"}, false},
		{"new benchmark skipped", map[string]point{"BenchmarkRefreshWindow/new": {NsOp: 1e9, AllocsOp: 99}}, nil, true},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := checkBench(&out, base, simEntry{Benchmarks: tc.cur})
		if got := failNames(out.String()); !reflect.DeepEqual(got, tc.fail) {
			t.Errorf("%s: FAIL set %v, want %v\n%s", tc.name, got, tc.fail, out.String())
		}
		if (err != nil) != (tc.fail != nil) {
			t.Errorf("%s: err %v with FAIL set %v", tc.name, err, tc.fail)
		}
		if tc.skip != strings.Contains(out.String(), "SKIP ") {
			t.Errorf("%s: SKIP line present=%v, want %v\n%s", tc.name, !tc.skip, tc.skip, out.String())
		}
	}
}

// TestDegradeRoundTrip: sim degrade writes go-test lines that read
// back as the scaled entry.
func TestDegradeRoundTrip(t *testing.T) {
	e, err := readBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeBench(&out, degradeBench(e, 3)); err != nil {
		t.Fatal(err)
	}
	back, err := readBench(&out)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range e.Benchmarks {
		q := back.Benchmarks[name]
		if q.NsOp != 3*p.NsOp || q.AllocsOp != 3*p.AllocsOp || q.Iters != p.Iters {
			t.Errorf("%s: degraded %+v from %+v", name, q, p)
		}
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")

	tr, err := loadTrajectory[load.Report](path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.latest() != nil {
		t.Fatal("missing file should be an empty trajectory")
	}

	tr.Entries = append(tr.Entries, load.Report{Date: "2026-08-08T00:00:00Z", Overall: load.PhaseStats{Requests: 600}})
	if err := tr.save(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrajectory[load.Report](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != 1 || len(got.Entries) != 1 {
		t.Fatalf("round trip gave schema=%d entries=%d", got.Schema, len(got.Entries))
	}
	latest := got.latest()
	if latest == nil || latest.Overall.Requests != 600 {
		t.Fatalf("latest entry %+v", latest)
	}
}

// TestCheckedInTrajectoriesRoundTrip: both checked-in files decode and
// re-encode byte for byte, so record rewrites nothing but its append.
func TestCheckedInTrajectoriesRoundTrip(t *testing.T) {
	roundTrip(t, "../../BENCH_sim.json", loadTrajectory[simEntry])
	roundTrip(t, "../../BENCH_serve.json", loadTrajectory[load.Report])
}

func roundTrip[E any](t *testing.T, path string, loadFn func(string) (trajectory[E], error)) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := loadFn(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.json")
	if err := tr.save(out); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Errorf("%s does not round-trip byte for byte", path)
	}
}

// TestFixtureVerdicts replays inputs whose verdicts were recorded with
// esteem-benchgate and esteem-servegate, the two tools this one
// replaced, against the baselines of that time (testdata/base_*.json).
// Each *.verdict file holds the old tool's output plus its exit code;
// the gate must reach the same pass/fail and FAIL set.
func TestFixtureVerdicts(t *testing.T) {
	cases := []struct{ kind, input, base, verdict string }{
		{"sim", "bench.txt", "base_sim.json", "bench.verdict"},
		{"serve", "report.json", "base_serve.json", "report.verdict"},
		{"serve", "degraded.json", "base_serve.json", "degraded.verdict"},
	}
	for _, tc := range cases {
		in, err := os.ReadFile(filepath.Join("testdata", tc.input))
		if err != nil {
			t.Fatal(err)
		}
		old, err := os.ReadFile(filepath.Join("testdata", tc.verdict))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run([]string{tc.kind, "check", filepath.Join("testdata", tc.base)}, "", bytes.NewReader(in), &out)
		got := out.String()
		if err != nil {
			got += "esteem-gate: " + err.Error() + "\n"
		}
		oldPass := strings.HasSuffix(string(old), "exit=0\n")
		if (err == nil) != oldPass {
			t.Errorf("%s: pass=%v, old tool pass=%v\n%s", tc.input, err == nil, oldPass, got)
		}
		if g, w := failNames(got), failNames(string(old)); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: FAIL set %v, old tool %v", tc.input, g, w)
		}
	}
}

// TestSimSelfTest: the sim degrade copy of a passing run must fail
// every tracked benchmark.
func TestSimSelfTest(t *testing.T) {
	in, err := os.ReadFile("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	var degraded, out bytes.Buffer
	if err := run([]string{"sim", "degrade", "3"}, "", bytes.NewReader(in), &degraded); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := run([]string{"sim", "record", path}, "1s", bytes.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"sim", "check", path}, "", bytes.NewReader(in), &out); err != nil {
		t.Fatalf("a run gated against itself failed: %v", err)
	}
	out.Reset()
	if err := run([]string{"sim", "check", path}, "", &degraded, &out); err == nil {
		t.Fatalf("gate passed a 3x-degraded run:\n%s", out.String())
	}
	if n := len(failNames(out.String())); n != 10 {
		t.Errorf("%d FAIL lines, want all 10 benchmarks\n%s", n, out.String())
	}
}

func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"sim", "check"}, {"bogus", "check", "f"}, {"serve", "bogus", "f"}} {
		if err := run(args, "", strings.NewReader(""), &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("%q: err %v, want usage", args, err)
		}
	}
	if err := run([]string{"serve", "degrade", "1"}, "", strings.NewReader("{}"), &bytes.Buffer{}); err == nil {
		t.Error("degrade by 1 accepted")
	}
}

// failNames returns the sorted names a gate output marks as failing:
// the benchmark of every sim FAIL line, and the message of a serve
// "load gate:" violation.
func failNames(out string) []string {
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "FAIL" {
			names = append(names, f[1])
		}
		if i := strings.Index(line, "load gate: "); i >= 0 {
			names = append(names, line[i:])
		}
	}
	sort.Strings(names)
	return names
}
