// Command esteem-gate records and gates the repository's two
// checked-in benchmark trajectories: BENCH_sim.json (simulator ns/op
// and allocs/op from `go test -bench -benchmem` output) and
// BENCH_serve.json (service p99, throughput and cache hit rate from an
// esteem-load report). Input always arrives on stdin:
//
//	go test -bench ... -benchmem | esteem-gate -benchtime 1s sim record BENCH_sim.json
//	go test -bench ... -benchmem | esteem-gate sim check BENCH_sim.json
//	esteem-gate sim degrade 3 <bench.txt | esteem-gate sim check BENCH_sim.json  # must fail
//	esteem-gate serve record BENCH_serve.json <report.json
//	esteem-gate serve check BENCH_serve.json <report.json
//	esteem-gate serve degrade 50 <report.json >degraded.json
//
// record appends one dated entry to the trajectory file, which is
// checked in so the perf history rides with the code. check gates the
// input against the file's latest entry and exits 1 on a regression;
// its header prints the baseline's host shape next to this host's, so
// a cross-host comparison is visible in the output. degrade writes a
// copy of the input with an N-fold synthetic regression that check
// must reject: the self-test proving a gate is live.
//
// The sim gate fails on ns/op more than 15% above the baseline or on
// ANY allocs/op increase: time is noisy across hosts, allocation
// counts are exact. The serve gate applies load.Check.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/load"
)

const usage = `usage: esteem-gate [-benchtime D] sim|serve record|check FILE <input
       esteem-gate sim|serve degrade N <input >degraded`

var errUsage = errors.New(usage)

func main() {
	benchtime := flag.String("benchtime", "1s", "go test -benchtime label that `sim record` stores in the trajectory")
	version := cliflags.VersionFlag(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usage)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(cliflags.PrintVersion("esteem-gate"))
		return
	}
	if err := run(flag.Args(), *benchtime, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esteem-gate:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes one `KIND VERB ARG` command line.
func run(args []string, benchtime string, in io.Reader, out io.Writer) error {
	if len(args) != 3 {
		return errUsage
	}
	switch args[0] {
	case "sim":
		return dispatch(simGate(benchtime), args[1], args[2], in, out)
	case "serve":
		return dispatch(serveGate, args[1], args[2], in, out)
	}
	return errUsage
}

// host is the machine shape an entry was measured on.
type host struct {
	Date   string `json:"date"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
}

func (h host) String() string {
	return fmt.Sprintf("cpus=%d %s/%s %s", h.CPUs, h.GOOS, h.GOARCH, h.Go)
}

// trajectory is the layout of both checked-in files. Benchtime labels
// the sim file's `go test -benchtime`; the serve file has none.
type trajectory[E any] struct {
	Schema    int    `json:"schema"`
	Benchtime string `json:"benchtime,omitempty"`
	Entries   []E    `json:"entries"`
}

// loadTrajectory reads a trajectory file; a missing file is an empty
// trajectory.
func loadTrajectory[E any](path string) (trajectory[E], error) {
	tr := trajectory[E]{Schema: 1}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return tr, nil
	} else if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return tr, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

func (tr trajectory[E]) save(path string) error {
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// latest returns the most recent entry, or nil.
func (tr trajectory[E]) latest() *E {
	if len(tr.Entries) == 0 {
		return nil
	}
	return &tr.Entries[len(tr.Entries)-1]
}

// gate is one trajectory kind: how its stdin is read and written, the
// host an entry was measured on, and the kind's verdict and self-test.
type gate[E any] struct {
	benchtime string // stored by record; empty leaves the field out
	read      func(io.Reader) (E, error)
	write     func(io.Writer, E) error
	host      func(E) host
	// check prints the per-item verdict and returns the failure.
	check   func(w io.Writer, base, cur E) error
	degrade func(E, float64) E
	summary func(w io.Writer, e E)
}

func dispatch[E any](g gate[E], verb, arg string, in io.Reader, out io.Writer) error {
	if verb == "degrade" {
		factor, err := strconv.ParseFloat(arg, 64)
		if err != nil || factor <= 1 {
			return fmt.Errorf("degrade wants a factor > 1, got %q", arg)
		}
		cur, err := g.read(in)
		if err != nil {
			return err
		}
		return g.write(out, g.degrade(cur, factor))
	}
	if verb != "record" && verb != "check" {
		return errUsage
	}
	cur, err := g.read(in)
	if err != nil {
		return err
	}
	tr, err := loadTrajectory[E](arg)
	if err != nil {
		return err
	}
	if verb == "record" {
		tr.Schema = 1
		tr.Benchtime = g.benchtime
		tr.Entries = append(tr.Entries, cur)
		if err := tr.save(arg); err != nil {
			return err
		}
		g.summary(out, cur)
		fmt.Fprintf(out, "appended entry %d to %s\n", len(tr.Entries), arg)
		return nil
	}
	base := tr.latest()
	if base == nil {
		return fmt.Errorf("%s holds no baseline entries; record one first", arg)
	}
	bh := g.host(*base)
	fmt.Fprintf(out, "baseline %s (%s) vs this host (%s)\n", bh.Date, bh, g.host(cur))
	return g.check(out, *base, cur)
}

// ---- sim: go test -bench output vs BENCH_sim.json ----

// maxNsRegress is the largest fractional ns/op increase the sim gate
// passes. Any allocs/op increase fails regardless.
const maxNsRegress = 0.15

// tracked is the pinned hot-path set: the benchmarks whose trajectory
// BENCH_sim.json records and whose regressions the CI lane rejects.
var tracked = []string{
	"BenchmarkCacheAccess",
	"BenchmarkCacheNew",
	"BenchmarkActiveFraction",
	"BenchmarkRefreshWindow",
	"BenchmarkSimRunShort",
	"BenchmarkClusterTask",
}

// trackedBy returns the tracked base name that benchmark result name
// belongs to ("" if untracked). Sub-benchmarks count toward their
// parent: BenchmarkRefreshWindow/rpv is tracked by
// BenchmarkRefreshWindow and recorded under its full name.
func trackedBy(name string) string {
	for _, t := range tracked {
		if name == t || strings.HasPrefix(name, t+"/") {
			return t
		}
	}
	return ""
}

// benchLine matches one result line of `go test -bench -benchmem`
// output, e.g.
//
//	BenchmarkCacheAccess-8  35108067  33.96 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// point is one benchmark measurement.
type point struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	Iters    int64   `json:"iters"`
}

// simEntry is one dated record of every tracked benchmark.
type simEntry struct {
	host
	Benchmarks map[string]point `json:"benchmarks"`
}

func simGate(benchtime string) gate[simEntry] {
	return gate[simEntry]{
		benchtime: benchtime,
		read:      readBench,
		write:     writeBench,
		host:      func(e simEntry) host { return e.host },
		check:     checkBench,
		degrade:   degradeBench,
		summary: func(w io.Writer, e simEntry) {
			for _, name := range sortedNames(e.Benchmarks) {
				p := e.Benchmarks[name]
				fmt.Fprintf(w, "recorded %-28s %12.2f ns/op %8.0f allocs/op\n", name, p.NsOp, p.AllocsOp)
			}
		},
	}
}

// readBench extracts the tracked benchmarks from go-test output,
// keeping the best (lowest) ns/op seen per name so -count repetitions
// gate on the least-noisy measurement. Every tracked benchmark must
// be present, and the entry is stamped with this host and today.
func readBench(r io.Reader) (simEntry, error) {
	got := make(map[string]point)
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil || trackedBy(m[1]) == "" {
			continue
		}
		var p point
		p.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		p.NsOp, _ = strconv.ParseFloat(m[3], 64)
		p.BOp, _ = strconv.ParseFloat(m[4], 64)
		p.AllocsOp, _ = strconv.ParseFloat(m[5], 64)
		if old, ok := got[m[1]]; !ok || p.NsOp < old.NsOp {
			got[m[1]] = p
		}
		seen[trackedBy(m[1])] = true
	}
	if err := sc.Err(); err != nil {
		return simEntry{}, fmt.Errorf("reading benchmark output: %w", err)
	}
	var missing []string
	for _, t := range tracked {
		if !seen[t] {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		return simEntry{}, fmt.Errorf("stdin carried no results for %s (did the bench run fail?)", strings.Join(missing, ", "))
	}
	return simEntry{
		host: host{
			Date:   time.Now().UTC().Format("2006-01-02"),
			Go:     runtime.Version(),
			GOOS:   runtime.GOOS,
			GOARCH: runtime.GOARCH,
			CPUs:   runtime.NumCPU(),
		},
		Benchmarks: got,
	}, nil
}

// writeBench prints an entry back as go-test result lines, which
// readBench parses again.
func writeBench(w io.Writer, e simEntry) error {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	for _, name := range sortedNames(e.Benchmarks) {
		p := e.Benchmarks[name]
		fmt.Fprintf(&b, "%s\t%d\t%s ns/op\t%s B/op\t%s allocs/op\n",
			name, p.Iters, num(p.NsOp), num(p.BOp), num(p.AllocsOp))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// degradeBench scales ns/op, B/op and allocs/op by factor, so the
// copy fails on time and, wherever a benchmark allocates, on
// allocations too.
func degradeBench(e simEntry, factor float64) simEntry {
	out := e
	out.Benchmarks = make(map[string]point, len(e.Benchmarks))
	for name, p := range e.Benchmarks {
		p.NsOp *= factor
		p.BOp *= factor
		p.AllocsOp *= factor
		out.Benchmarks[name] = p
	}
	return out
}

func checkBench(w io.Writer, base, cur simEntry) error {
	var failed []string
	for _, name := range sortedNames(cur.Benchmarks) {
		p := cur.Benchmarks[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "SKIP %-28s no baseline (new benchmark)\n", name)
			continue
		}
		delta := (p.NsOp - b.NsOp) / b.NsOp
		status := "ok  "
		if p.AllocsOp > b.AllocsOp || delta > maxNsRegress {
			status = "FAIL"
			failed = append(failed, name)
		}
		fmt.Fprintf(w, "%s %-28s %12.2f ns/op (base %12.2f, %+6.1f%%)  %5.0f allocs/op (base %.0f)\n",
			status, name, p.NsOp, b.NsOp, delta*100, p.AllocsOp, b.AllocsOp)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d regression(s) vs the %s entry (ns/op > +%.0f%% or allocs/op increase)",
			len(failed), base.Date, maxNsRegress*100)
	}
	fmt.Fprintln(w, "benchmark gate passed")
	return nil
}

func sortedNames(m map[string]point) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- serve: esteem-load report vs BENCH_serve.json ----

var serveGate = gate[load.Report]{
	read: func(r io.Reader) (load.Report, error) {
		var rep load.Report
		if err := json.NewDecoder(r).Decode(&rep); err != nil {
			return rep, fmt.Errorf("decoding esteem-load report: %w", err)
		}
		return rep, nil
	},
	write: func(w io.Writer, rep load.Report) error {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(b, '\n'))
		return err
	},
	host: func(r load.Report) host {
		return host{Date: r.Date, Go: r.Go, GOOS: r.GOOS, GOARCH: r.GOARCH, CPUs: r.CPUs}
	},
	check:   checkReport,
	degrade: load.Degrade,
	summary: func(w io.Writer, rep load.Report) {
		o := rep.Overall
		fmt.Fprintf(w, "recorded: %d requests, %.1f rps achieved, p50 %.2f ms, p99 %.2f ms, hit rate %.1f%%\n",
			o.Requests, o.AchievedRPS, o.Latency.P50, o.Latency.P99, rep.Cache.HitRate*100)
	},
}

func checkReport(w io.Writer, base, rep load.Report) error {
	o, b := rep.Overall, base.Overall
	if err := load.Check(&base, rep); err != nil {
		return fmt.Errorf("%w\n  baseline (%s): p99 %.2f ms, %.1f rps\n  this run: p99 %.2f ms, %.1f rps",
			err, base.Date, b.Latency.P99, b.AchievedRPS, o.Latency.P99, o.AchievedRPS)
	}
	fmt.Fprintf(w, "ok   %d requests, %d completed, %d rejected (429), %d errors\n",
		o.Requests, o.Completed, o.Rejected, o.Errors)
	fmt.Fprintf(w, "ok   p50 %.2f ms, p99 %.2f ms, p999 %.2f ms (baseline p99 %.2f ms)\n",
		o.Latency.P50, o.Latency.P99, o.Latency.P999, b.Latency.P99)
	fmt.Fprintf(w, "ok   %.1f rps achieved (baseline %.1f), cache hit rate %.1f%% (hot fraction %.0f%%)\n",
		o.AchievedRPS, b.AchievedRPS, rep.Cache.HitRate*100, rep.HotFraction*100)
	fmt.Fprintln(w, "service-level gate passed")
	return nil
}
