package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sweepSpec is one esteem-bench invocation the sweep workloads run.
type sweepSpec struct {
	name  string
	exps  string
	cores int
	// golden lists outputs that must byte-match results/golden/.
	golden []string
	// digested lists outputs whose SHA-256 must match fig4.sha256.
	digested []string
}

var (
	sweep1core = sweepSpec{name: "sweep-1core", exps: "table2,fig3,ablation", cores: 1,
		golden: []string{"table2.json", "fig3.json", "ablation.json"}}
	sweep2core = sweepSpec{name: "sweep-2core", exps: "fig4", cores: 2,
		digested: []string{"fig4.json"}}
)

// fig4Digests holds "<sha256>  <file>" lines recorded from the seed's
// esteem-bench -exp fig4 -quick -seed 1 output.
//
//go:embed fig4.sha256
var fig4Digests string

// setupLaunches is how many extra short launches per run sample the
// sweep's set-up time. Set-up is tens of milliseconds, mostly page
// faults, so one sample swings with the host (see setupFigure).
const setupLaunches = 9

// args returns the esteem-bench command line. A budget override runs
// the same experiments with tiny simulations (set-up samples).
func (s sweepSpec) args(e *env, out string, tiny bool) []string {
	a := []string{"-exp", s.exps, "-quick", "-seed", "1", "-jobs", strconv.Itoa(e.jobs), "-out", out}
	if tiny {
		a = append(a, "-instr", "40000", "-warmup", "40000")
	}
	return a
}

// sweepRun is one finished esteem-bench invocation.
type sweepRun struct {
	use     usage
	setup   time.Duration // launch -> first simulation start
	instr   uint64        // simulated instructions (manifest.json)
	sims    int
	simWall []float64      // per-simulation wall ms (run artifacts)
	tasks   [][2]time.Time // per-simulation start and end
}

// runManifest is the part of a run artifact the benchmark reads.
type runManifest struct {
	Manifest struct {
		ConfigHash string  `json:"config_hash"`
		WallMillis float64 `json:"wall_ms"`
	} `json:"manifest"`
	Summary json.RawMessage `json:"summary"`
}

// launchSweep runs esteem-bench once. First-simulation start is taken
// from outside the program: every run artifact's close time (inotify)
// minus the wall time its manifest records; the earliest is the
// sweep's first simulation start.
func launchSweep(e *env, s sweepSpec, out string, tiny bool) (sweepRun, error) {
	runs := filepath.Join(out, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return sweepRun{}, err
	}
	w, err := watchCloses(runs)
	if err != nil {
		return sweepRun{}, err
	}
	log, err := os.Create(filepath.Join(out, "esteem-bench.log"))
	if err != nil {
		w.close(0)
		return sweepRun{}, err
	}
	defer log.Close()
	cmd := e.command(log, "esteem-bench", s.args(e, out, tiny)...)
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		w.close(0)
		return sweepRun{}, fmt.Errorf("esteem-bench %s: %v (log %s)", s.exps, err, log.Name())
	}
	r := sweepRun{use: usageOf(cmd.ProcessState, wall)}
	ents, err := os.ReadDir(runs)
	if err != nil {
		w.close(0)
		return sweepRun{}, err
	}
	closes := w.close(len(ents))

	var man struct {
		SimulatedInstructions uint64 `json:"simulated_instructions"`
	}
	if err := readJSON(filepath.Join(out, "manifest.json"), &man); err != nil {
		return sweepRun{}, err
	}
	r.instr = man.SimulatedInstructions
	arts, err := readArtifacts(runs)
	if err != nil {
		return sweepRun{}, err
	}
	first := time.Duration(-1)
	for name, a := range arts {
		r.sims++
		r.simWall = append(r.simWall, a.Manifest.WallMillis)
		at, ok := closes[name]
		if !ok {
			return sweepRun{}, fmt.Errorf("no close event seen for artifact %s", name)
		}
		start := at.Add(-time.Duration(a.Manifest.WallMillis * float64(time.Millisecond)))
		r.tasks = append(r.tasks, [2]time.Time{start, at})
		if first < 0 || start.Sub(t0) < first {
			first = start.Sub(t0)
		}
	}
	if r.sims == 0 {
		return sweepRun{}, fmt.Errorf("esteem-bench %s wrote no run artifacts", s.exps)
	}
	r.setup = first
	return r, nil
}

// readArtifacts decodes every run artifact in dir, keyed by file name.
func readArtifacts(dir string) (map[string]runManifest, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]runManifest, len(ents))
	for _, de := range ents {
		var a runManifest
		if err := readJSON(filepath.Join(dir, de.Name()), &a); err != nil {
			return nil, err
		}
		out[de.Name()] = a
	}
	return out, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// checkOutputs compares a sweep's outputs with the golden files and
// the recorded digests; it returns one line per mismatch.
func (s sweepSpec) checkOutputs(root, out string) []string {
	var bad []string
	for _, name := range s.golden {
		want, err1 := os.ReadFile(filepath.Join(root, "results", "golden", name))
		got, err2 := os.ReadFile(filepath.Join(out, name))
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			bad = append(bad, name+" differs from results/golden/"+name)
		}
	}
	for _, name := range s.digested {
		got, err := os.ReadFile(filepath.Join(out, name))
		sum := sha256.Sum256(got)
		if err != nil || !strings.Contains(fig4Digests, hex.EncodeToString(sum[:])+"  "+name) {
			bad = append(bad, name+" does not match its recorded digest")
		}
	}
	return bad
}

// runSweep measures a sweep workload end to end: set-up samples from
// short launches, then whole sweeps for the run's seconds (at least
// one), each checked against its recorded outputs.
func runSweep(e *env, s sweepSpec) (result, error) {
	dir, err := e.workDir(s.name)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		out := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		r, err := launchSweep(e, s, out, true)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, r.setup.Seconds())
		os.RemoveAll(out)
	}

	res := result{Correct: true, Metrics: metrics{}}
	var rates, cpus, rss, cpuPerSim []float64
	start := time.Now()
	for i := 0; ; i++ {
		out := filepath.Join(dir, fmt.Sprintf("sweep%d", i))
		r, err := launchSweep(e, s, out, false)
		if err != nil {
			return result{}, err
		}
		res.Attempted += r.sims
		if bad := s.checkOutputs(e.root, out); len(bad) > 0 {
			res.Correct = false
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "perfbench: "+s.name+": "+b)
			}
		}
		os.RemoveAll(out)
		setups = append(setups, r.setup.Seconds())
		secs := r.use.wall.Seconds()
		rates = append(rates, float64(r.instr)/1e6/secs)
		cpus = append(cpus, r.use.cpu.Seconds())
		rss = append(rss, r.use.peakMB)
		cpuPerSim = append(cpuPerSim, r.use.cpu.Seconds()*1e3/float64(r.sims))
		fmt.Fprintf(os.Stderr, "perfbench: %s sweep %d: %d sims, %.2fs wall, %.2fs cpu, %.1f Minstr/s\n",
			s.name, i, r.sims, secs, r.use.cpu.Seconds(), rates[len(rates)-1])
		if time.Since(start)+r.use.wall > e.seconds {
			break
		}
	}
	m := res.Metrics
	m.set("setup_s", "s", setupFigure(setups))
	m.set("sim_minstr_per_s", "Minstr/s", median(rates))
	m.set("sweep_cpu_s", "s", median(cpus))
	m.set("peak_rss_mb", "MB", median(rss))
	m.set("cpu_ms_per_req", "ms", median(cpuPerSim))
	return res, nil
}

// closeWatch timestamps IN_CLOSE_WRITE events in one directory.
type closeWatch struct {
	f    *os.File
	mu   sync.Mutex
	at   map[string]time.Time
	done chan struct{}
}

func watchCloses(dir string) (*closeWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("inotify: %v", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CLOSE_WRITE); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify watch %s: %v", dir, err)
	}
	w := &closeWatch{f: os.NewFile(uintptr(fd), "inotify"), at: map[string]time.Time{}, done: make(chan struct{})}
	go w.read()
	return w, nil
}

func (w *closeWatch) read() {
	defer close(w.done)
	buf := make([]byte, 64<<10)
	for {
		n, err := w.f.Read(buf)
		if err != nil {
			return
		}
		now := time.Now()
		w.mu.Lock()
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			nameLen := int(uint32(buf[off+12]) | uint32(buf[off+13])<<8 | uint32(buf[off+14])<<16 | uint32(buf[off+15])<<24)
			name := strings.TrimRight(string(buf[off+syscall.SizeofInotifyEvent:off+syscall.SizeofInotifyEvent+nameLen]), "\x00")
			if _, seen := w.at[name]; !seen {
				w.at[name] = now
			}
			off += syscall.SizeofInotifyEvent + nameLen
		}
		w.mu.Unlock()
	}
}

// close waits (briefly) until events for expect files have been read,
// then stops the watch and returns the first close time per file.
func (w *closeWatch) close(expect int) map[string]time.Time {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.mu.Lock()
		n := len(w.at)
		w.mu.Unlock()
		if n >= expect {
			break
		}
	}
	w.f.Close()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.at
}
