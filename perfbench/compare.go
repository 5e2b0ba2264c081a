package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of runs of the same workloads, a base
// and a head, each a directory of files named <workload>-*.json whose
// last line is a benchmark result. For every end-to-end metric it
// reports both medians and interquartile spreads and calls the head
// worse when its median is worse than the base's by more than the
// metric's bound in BENCHMARK.json. It exits 1 when any end-to-end
// metric is worse, so unchanged code passes and a regression fails.
// Per-layer metrics (traced runs) have no bound; they are reported
// against the largest end-to-end bound and never fail the comparison.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-root DIR] BASE_DIR HEAD_DIR")
		return 2
	}
	var bf benchmarkFile
	if err := readJSON(filepath.Join(*root, "BENCHMARK.json"), &bf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base, err := loadRuns(fs.Arg(0))
	if err == nil {
		var head map[string][]result
		if head, err = loadRuns(fs.Arg(1)); err == nil {
			return compareRuns(bf, base, head)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func compareRuns(bf benchmarkFile, base, head map[string][]result) int {
	var names []string
	for w := range base {
		if _, ok := head[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	largest := 0.0
	for _, m := range bf.EndToEnd {
		largest = math.Max(largest, m.Bound)
	}
	perLayer := make([]metricSpec, len(bf.PerLayer))
	for i, m := range bf.PerLayer {
		m.Bound = largest
		perLayer[i] = m
	}
	worse := 0
	fmt.Printf("%-12s %-18s %12s %12s %9s %8s %8s  %s\n", "workload", "metric", "base", "head", "change", "base_iqr", "head_iqr", "verdict")
	for _, w := range names {
		for i, m := range append(bf.EndToEnd, perLayer...) {
			gate := i < len(bf.EndToEnd)
			b, h := values(base[w], m.Name), values(head[w], m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			mb, mh := median(b), median(h)
			change := (mh - mb) / mb
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case change > m.Bound && gate:
				verdict = "WORSE"
				worse++
			case change > m.Bound:
				verdict = "worse (per-layer, not gated)"
			case change < -m.Bound:
				verdict = "better"
			}
			if verdict == "same" && (spread(b) > m.Bound || spread(h) > m.Bound) {
				verdict = "unresolved"
			}
			fmt.Printf("%-12s %-18s %12.4g %12.4g %+8.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%, %d vs %d runs)\n",
				w, m.Name, mb, mh, 100*change, 100*spread(b), 100*spread(h), verdict, 100*m.Bound, len(b), len(h))
		}
	}
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than the base beyond their bound\n", worse)
		return 1
	}
	fmt.Println("no metric worse than the base beyond its bound")
	return 0
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(xs, n=4) gives: its default
// method puts the q-quantile at rank q(n+1), counted from 1.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := math.Min(math.Max(q*float64(len(s)+1)-1, 0), float64(len(s)-1))
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return (at(0.75) - at(0.25)) / math.Abs(median(xs))
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// loadRuns reads every <workload>-*.json file in dir.
func loadRuns(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string][]result{}
	for _, f := range files {
		w := filepath.Base(f)
		i := strings.LastIndexByte(w, '-')
		if i <= 0 {
			return nil, fmt.Errorf("%s: want <workload>-<n>.json", f)
		}
		r, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		out[w[:i]] = append(out[w[:i]], r)
	}
	return out, nil
}

// lastResult decodes the last line of a benchmark's output.
func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %v", path, err)
	}
	if !r.Correct {
		return r, fmt.Errorf("%s: run reported incorrect output", path)
	}
	return r, nil
}
