package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/edram"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/refrint"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/smartref"
	"repro/internal/tech"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// job is one simulation as the program schedules it: the derived
// configuration (per-job seed, canonical technology), the workload,
// and the baseline job it depends on (-1 for none).
type job struct {
	label string
	cfg   sim.Config
	wl    []string
	dep   int
}

// derive applies the runner's per-job seed derivation.
func derive(cfg sim.Config, wl []string) sim.Config {
	cfg.Seed = runner.DeriveSeed(cfg.Seed, wl...)
	cfg.Technology = tech.CanonicalName(cfg.Technology)
	return cfg
}

func newJob(cfg sim.Config, wl []string, dep int) job {
	d := derive(cfg, wl)
	return job{label: fmt.Sprintf("%s/%s/%dc", d.Technique, strings.Join(wl, "+"), d.Cores), cfg: d, wl: wl, dep: dep}
}

// sweepJobs lists the simulations esteem-bench -quick -seed 1 schedules
// for the spec's experiments, in its submission order and with its
// baseline deduplication and DAG edges. The traced run checks every
// job's configuration hash against the run artifacts esteem-bench
// writes, so a drift between this list and the program fails loudly.
func sweepJobs(s sweepSpec) []job {
	var jobs []job
	baselines := map[runner.Key]int{}
	config := func(cores int, t sim.Technique) sim.Config {
		cfg := sim.DefaultConfig(cores)
		cfg.Technique = t
		cfg.Technology = "edram"
		cfg.RetentionMicros = 50
		cfg.MeasureInstr = 20_000_000 / 4
		cfg.WarmupInstr = 10_000_000 / 4
		cfg.IntervalCycles = 2_000_000
		cfg.Seed = 1
		return cfg
	}
	baseline := func(cfg sim.Config, wl []string) int {
		cfg.Technique = sim.Baseline
		cfg.LogIntervals = false
		k := runner.BaselineKey(cfg, wl)
		if i, ok := baselines[k]; ok {
			return i
		}
		jobs = append(jobs, newJob(cfg, wl, -1))
		baselines[k] = len(jobs) - 1
		return len(jobs) - 1
	}
	add := func(cfg sim.Config, wl []string, dep int) { jobs = append(jobs, newJob(cfg, wl, dep)) }
	quick := func(cores int) [][]string {
		var out [][]string
		if cores == 1 {
			for i, p := range trace.Profiles() {
				if i%3 == 0 {
					out = append(out, []string{p.Name})
				}
			}
		} else {
			for i, m := range trace.DualCoreWorkloads() {
				if i%3 == 0 {
					out = append(out, []string{m[0], m[1]})
				}
			}
		}
		return out
	}
	figure := func(cores int) {
		for _, wl := range quick(cores) {
			cfg := config(cores, sim.Baseline)
			b := baseline(cfg, wl)
			for _, t := range []sim.Technique{sim.RPV, sim.Esteem} {
				tcfg := cfg
				tcfg.Technique = t
				add(tcfg, wl, b)
			}
		}
	}
	for _, exp := range strings.Split(s.exps, ",") {
		switch exp {
		case "fig3":
			figure(1)
		case "fig4":
			figure(2)
		case "ablation":
			techs := []sim.Technique{sim.PeriodicValid, sim.RPV, sim.RPD, sim.SmartRefresh, sim.ECCExtended, sim.EsteemAllLineRefresh, sim.Esteem, sim.NoRefresh}
			for _, w := range []string{"gamess", "gobmk", "gcc", "sphinx", "lbm", "mcf", "omnetpp"} {
				cfg := config(1, sim.Baseline)
				baseline(cfg, []string{w})
				for _, t := range techs {
					tcfg := cfg
					tcfg.Technique = t
					add(tcfg, []string{w}, -1)
				}
			}
			for _, w := range []string{"omnetpp", "xalancbmk", "gcc"} {
				cfg := config(1, sim.Esteem)
				b := baseline(cfg, []string{w})
				off := cfg
				off.Esteem.DisableNonLRUGuard = true
				add(cfg, []string{w}, b)
				add(off, []string{w}, b)
			}
			for _, w := range []string{"sphinx", "cactusADM", "wrf", "bzip2"} {
				cfg := config(1, sim.Esteem)
				b := baseline(cfg, []string{w})
				damp := cfg
				damp.Esteem.MaxWayDelta = 2
				add(cfg, []string{w}, b)
				add(damp, []string{w}, b)
			}
		}
	}
	return jobs
}

// countingSource is the trace.Source wrapper the benchmark passes to
// the simulator: it counts references and stamps the first one.
type countingSource struct {
	*trace.Generator
	refs  uint64
	first time.Time
}

func (s *countingSource) Next() trace.Ref {
	if s.refs == 0 {
		s.first = time.Now()
	}
	s.refs++
	return s.Generator.Next()
}

// sources builds a job's workload generators exactly as sim.New does.
func sources(j job) ([]*countingSource, error) {
	var out []*countingSource
	for i, name := range j.wl {
		prof, ok := trace.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		g, err := trace.NewGenerator(prof, j.cfg.Seed+uint64(i)*0x9E3779B9)
		if err != nil {
			return nil, err
		}
		out = append(out, &countingSource{Generator: g})
	}
	return out, nil
}

// simRun is what the traced in-process run recorded for one job.
type simRun struct {
	refs       []uint64      // per source
	simTime    time.Duration // first reference -> result
	replayTime time.Duration // the standalone replay that followed it
	selfTime   time.Duration // the rest of the pool's task
	instr      uint64
	spans      uint64 // tracez spans the simulation recorded
	intervals  []obs.Interval
	summary    obs.RunSummary
	cost       replayCost
}

// runPool executes every job on a runner.Pool with wrapped sources, an
// interval collector and a tracez span attached (as the program's
// telemetry does).
// Each task replays its job standalone right after simulating it, on
// the same worker, so that a simulation and the replay that
// apportions its time run under the same host conditions.
func runPool(jobs []job, workers int) ([]simRun, error) {
	var mu sync.Mutex
	starts, ends := make([]time.Time, len(jobs)), make([]time.Time, len(jobs))
	pool := runner.NewPool(workers, runner.WithTaskHook(func(ev runner.TaskEvent) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case runner.TaskStarted:
			starts[ev.TaskID] = now
		case runner.TaskDone, runner.TaskFailed:
			ends[ev.TaskID] = now
		}
	}))
	runs := make([]simRun, len(jobs))
	tasks := make([]*runner.Task, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		var deps []*runner.Task
		if j.dep >= 0 {
			deps = append(deps, tasks[j.dep])
		}
		tasks[i] = pool.Task(j.label, func(context.Context) error {
			srcs, err := sources(j)
			if err != nil {
				return err
			}
			ts := make([]trace.Source, len(srcs))
			for k, s := range srcs {
				ts[k] = s
			}
			sm, err := sim.NewFromSources(j.cfg, ts)
			if err != nil {
				return err
			}
			col := obs.NewCollector()
			sm.SetObserver(col)
			tracer := tracez.New(tracez.Config{})
			sp := tracer.Root("sim")
			sm.SetTraceSpan(sp)
			r, err := sm.Run()
			end := time.Now()
			if err != nil {
				return err
			}
			sp.End()
			st := tracer.Stats()
			run := simRun{instr: r.TotalInstructions(), spans: uint64(st.Buffered) + st.Dropped,
				intervals: col.Intervals(), summary: runner.Summarize(r)}
			first := srcs[0].first
			for _, s := range srcs {
				run.refs = append(run.refs, s.refs)
				if s.first.Before(first) {
					first = s.first
				}
			}
			run.simTime = end.Sub(first)
			if run.cost, err = replayJob(j, run); err != nil {
				return err
			}
			run.replayTime = time.Since(end)
			runs[i] = run
			return nil
		}, deps...)
	}
	if err := pool.Run(context.Background()); err != nil {
		return nil, err
	}
	for i := range runs {
		r := &runs[i]
		r.selfTime = ends[i].Sub(starts[i]) - r.simTime - r.replayTime
	}
	return runs, nil
}

// runnerLoad summarises task intervals on a pool of workers: the share
// of workers × the run's span the tasks kept busy, and the tail, from
// the last instant every worker was busy to the end of the run.
func runnerLoad(tasks [][2]time.Time, workers int) (busyFrac float64, tail time.Duration) {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	var busy time.Duration
	for _, t := range tasks {
		busy += t[1].Sub(t[0])
		edges = append(edges, edge{t[0], +1}, edge{t[1], -1})
	}
	if len(edges) == 0 {
		return 0, 0
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at.Equal(edges[b].at) {
			return edges[a].delta < edges[b].delta
		}
		return edges[a].at.Before(edges[b].at)
	})
	start, end := edges[0].at, edges[len(edges)-1].at
	running, lastFull := 0, start
	for _, e := range edges {
		was := running
		running += e.delta
		if was >= workers && running < workers {
			lastFull = e.at
		}
	}
	return busy.Seconds() / (float64(workers) * end.Sub(start).Seconds()), end.Sub(lastFull)
}

// layerTimes is the per-layer accounting of a job list: exact counts
// from the traced run, unit costs from standalone replays through each
// layer's public functions, and their products as estimated time.
type layerTimes struct {
	simTime                                   time.Duration
	instr, refs, l2Accesses                   uint64
	decisions, refreshes, evals               uint64
	traceNs, cacheNs, coreNs, edramNs, energy float64 // estimated ns in each layer
	nsPerRef, nsPerAccess, usPerDecision      float64
	nsPerEval                                 float64
	usPerWindow                               map[string]float64 // per refresh policy
	newMs                                     float64
}

// measureLayers combines each job's replay unit costs with the traced
// run's exact counts.
func measureLayers(jobs []job, runs []simRun) (*layerTimes, error) {
	lt := &layerTimes{usPerWindow: map[string]float64{}}
	var accesses float64
	policyNs, policyWindows := map[string]float64{}, map[string]float64{}
	for i, j := range jobs {
		r, c := runs[i], runs[i].cost
		lt.simTime += r.simTime
		lt.instr += r.instr
		for _, n := range r.refs {
			lt.refs += n
		}
		var cycles uint64
		for _, iv := range r.intervals {
			lt.l2Accesses += iv.L2Hits + iv.L2Misses
			lt.refreshes += iv.Refreshes
			cycles += iv.Cycles
		}
		lt.evals += uint64(len(r.intervals)) + 1 // one per boundary (observer) + the result
		lt.traceNs += c.genNs
		lt.cacheNs += c.cacheNs
		accesses += float64(c.accesses)
		// The replay's clock runs without stalls, so it crosses fewer
		// refresh windows than the simulation did: charge its cost per
		// window over the simulation's own windows.
		if c.windows > 0 {
			ret := retention(j.cfg)
			lt.edramNs += c.edramNs / c.windows * float64(cycles) / float64(ret)
		}
		pol := j.cfg.Technique.String()
		policyNs[pol] += c.edramNs
		policyWindows[pol] += c.windows
		if isEsteem(j.cfg.Technique) {
			lt.decisions += uint64(len(r.intervals))
			if c.decisions > 0 {
				lt.coreNs += c.coreNs / float64(c.decisions) * float64(len(r.intervals))
			}
		}
	}
	for pol, ns := range policyNs {
		if policyWindows[pol] > 0 {
			lt.usPerWindow[pol] = ns / 1e3 / policyWindows[pol]
		}
	}
	lt.nsPerRef = lt.traceNs / float64(lt.refs)
	lt.nsPerAccess = lt.cacheNs / accesses
	if lt.decisions > 0 {
		lt.usPerDecision = lt.coreNs / 1e3 / float64(lt.decisions)
	}

	// Energy evaluations on an interval's worth of real activity.
	model, err := energy.NewModel(jobs[0].cfg.L2SizeBytes, jobs[0].cfg.FreqHz)
	if err != nil {
		return nil, err
	}
	iv := runs[0].intervals[len(runs[0].intervals)/2]
	act := energy.Activity{Cycles: iv.Cycles, L2Hits: iv.L2Hits, L2WriteHits: iv.L2WriteHits, L2Misses: iv.L2Misses,
		Refreshes: iv.Refreshes, ActiveFraction: iv.ActiveRatio, MMAccesses: iv.MMReads + iv.MMWritebacks}
	const evalCalls = 200_000
	var sink float64
	t0 := time.Now()
	for k := 0; k < evalCalls; k++ {
		act.Cycles++
		sink += model.Eval(act).Total()
	}
	lt.nsPerEval = float64(time.Since(t0).Nanoseconds()) / evalCalls
	if math.IsNaN(sink) {
		return nil, fmt.Errorf("energy model returned NaN")
	}
	lt.energy = lt.nsPerEval * float64(lt.evals)

	// Construction of the first job's simulator (the SoA cache arrays).
	var news []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		if _, err := sim.New(jobs[0].cfg, jobs[0].wl); err != nil {
			return nil, err
		}
		news = append(news, ms(time.Since(t)))
	}
	lt.newMs = median(news)
	return lt, nil
}

func isEsteem(t sim.Technique) bool { return t == sim.Esteem || t == sim.EsteemAllLineRefresh }

// replayCost is what one standalone replay of a job measured.
type replayCost struct {
	genNs, cacheNs, edramNs, coreNs float64
	accesses                        uint64 // L1 + L2
	windows                         float64
	decisions                       int
}

// replayJob replays a job's reference stream outside the simulator,
// through the layers' public functions: cpu.Core.NextRef over fresh
// generators (the trace layer), then each chunk through L1s and an L2
// built as sim.New builds them, with the job's refresh policy attached
// to the L2, the refresh engine advanced wherever an event is due
// (edram) and, for ESTEEM, the controller's EndInterval after every
// interval's worth of L2 accesses (core). Each part is timed on its
// own; the loops carry as little bookkeeping as they can, since what
// they add is charged to the layer they time.
func replayJob(j job, run simRun) (replayCost, error) {
	var c replayCost
	if tech.CanonicalName(j.cfg.Technology) != "edram" {
		return c, fmt.Errorf("standalone replays model eDRAM only, not %q", j.cfg.Technology)
	}
	srcs, err := sources(j)
	if err != nil {
		return c, err
	}
	var cores []*cpu.Core
	var l1s []*cache.Cache
	for i, s := range srcs {
		cores = append(cores, cpu.New(i, s.Generator))
		l1, err := cache.New(cache.Params{Name: fmt.Sprintf("L1D%d", i), SizeBytes: j.cfg.L1SizeBytes,
			Assoc: j.cfg.L1Assoc, LineBytes: j.cfg.LineBytes, Latency: 2, Modules: 1, Banks: 1})
		if err != nil {
			return c, err
		}
		l1s = append(l1s, l1)
	}
	sampling := 0
	if isEsteem(j.cfg.Technique) {
		sampling = j.cfg.SamplingRatio
	}
	l2, err := cache.New(cache.Params{Name: "L2", SizeBytes: j.cfg.L2SizeBytes, Assoc: j.cfg.L2Assoc,
		LineBytes: j.cfg.LineBytes, Latency: int(j.cfg.L2LatencyCycles), Modules: max(j.cfg.Modules, 1),
		SamplingRatio: sampling, Banks: j.cfg.Banks})
	if err != nil {
		return c, err
	}
	clk := &edram.Clock{}
	pol, err := policyFor(j.cfg, l2, clk)
	if err != nil {
		return c, err
	}
	ret := retention(j.cfg)
	eng, err := edram.NewEngine(edram.Params{RetentionCycles: ret, Banks: j.cfg.Banks}, pol)
	if err != nil {
		return c, err
	}
	var ctl *core.Controller
	if isEsteem(j.cfg.Technique) {
		if ctl, err = core.NewController(l2, j.cfg.Esteem); err != nil {
			return c, err
		}
	}
	var l2PerInterval uint64
	for _, iv := range run.intervals {
		l2PerInterval += iv.L2Hits + iv.L2Misses
	}
	l2PerInterval /= uint64(max(len(run.intervals), 1))

	spacing := ret / uint64(pol.EventsPerWindow())
	due, nextDecision := spacing, l2PerInterval
	var cycle, l2n uint64
	var hooks time.Duration
	// beforeL2 runs where the simulator publishes its clock and asks
	// the refresh engine for the bank's delay: before each L2 access.
	beforeL2 := func() {
		clk.Cycle = cycle
		if cycle >= due {
			t := time.Now()
			eng.AdvanceTo(cycle)
			d := time.Since(t)
			c.edramNs += float64(d.Nanoseconds())
			hooks += d
			due = (cycle/spacing + 1) * spacing
		}
		if ctl != nil && l2n >= nextDecision {
			t := time.Now()
			ctl.EndInterval()
			d := time.Since(t)
			c.coreNs += float64(d.Nanoseconds())
			hooks += d
			c.decisions++
			nextDecision = l2n + l2PerInterval
		}
		l2n++
	}

	buf := make([]trace.Ref, 4096)
	owner := make([]int, len(buf))
	remaining := append([]uint64(nil), run.refs...)
	var r1, r2 cache.AccessResult
	for {
		// Generate a chunk, round-robin over the cores.
		n := 0
		t := time.Now()
		if len(cores) == 1 {
			for rem := remaining[0]; n < len(buf) && uint64(n) < rem; n++ {
				buf[n] = cores[0].NextRef()
			}
			remaining[0] -= uint64(n)
		}
		for n < len(buf) && len(cores) > 1 {
			progressed := false
			for k, core := range cores {
				if remaining[k] == 0 || n == len(buf) {
					continue
				}
				buf[n] = core.NextRef()
				owner[n] = k
				remaining[k]--
				n++
				progressed = true
			}
			if !progressed {
				break
			}
		}
		c.genNs += float64(time.Since(t).Nanoseconds())
		if n == 0 {
			break
		}
		// Run it through the hierarchy the way the simulator's step
		// does: L1, then on a miss L2, and L1 victims written back into
		// L2 when present.
		hooks = 0
		t = time.Now()
		for k := range buf[:n] {
			ref := &buf[k]
			cycle += uint64(ref.Gap) + 1
			addr := cache.Addr(ref.Addr + uint64(owner[k])<<44)
			l1s[owner[k]].AccessInto(addr, ref.Write, &r1)
			if r1.Hit {
				continue
			}
			beforeL2()
			l2.AccessInto(addr, false, &r2)
			if r1.WritebackVictim && l2.Probe(r1.VictimAddr) {
				l2.AccessInto(r1.VictimAddr, true, &r2)
			}
		}
		c.cacheNs += float64((time.Since(t) - hooks).Nanoseconds())
	}
	c.accesses = l2.TotalCounters().Accesses()
	for _, l1 := range l1s {
		c.accesses += l1.TotalCounters().Accesses()
	}
	c.windows = float64(eng.Events()) / float64(pol.EventsPerWindow())
	return c, nil
}

// retention returns the job's retention period in cycles as sim.New
// derives it (eDRAM, nominal temperature).
func retention(cfg sim.Config) uint64 {
	micros := cfg.RetentionMicros
	if cfg.Technique == sim.ECCExtended {
		f := cfg.ECCRetentionFactor
		if f == 0 {
			f = 4
		}
		micros *= f
	}
	return edram.RetentionCyclesFor(micros, cfg.FreqHz/1e9)
}

// policyFor builds the refresh policy sim.New builds for the job.
func policyFor(cfg sim.Config, l2 *cache.Cache, clk *edram.Clock) (edram.Policy, error) {
	ret := retention(cfg)
	switch cfg.Technique {
	case sim.Baseline, sim.EsteemAllLineRefresh, sim.ECCExtended:
		return edram.NewRefreshAll(l2), nil
	case sim.RPV:
		return refrint.NewRPV(l2, clk, cfg.RefrintPhases, ret)
	case sim.RPD:
		return refrint.NewRPD(l2, clk, cfg.RefrintPhases, ret)
	case sim.PeriodicValid:
		return refrint.NewPeriodicValid(l2), nil
	case sim.Esteem:
		return edram.NewValidOnly(l2), nil
	case sim.NoRefresh:
		return edram.None{}, nil
	case sim.SmartRefresh:
		periods := cfg.SmartRefreshPeriods
		if periods == 0 {
			periods = 4
		}
		return smartref.New(l2, periods)
	}
	return nil, fmt.Errorf("no refresh policy for technique %s", cfg.Technique)
}

// checkReplication compares the traced run's jobs with the artifacts
// the untraced program run wrote: same count, same configuration hash
// per task, same summary. It returns the mismatches.
func checkReplication(jobs []job, runs []simRun, arts map[string]runManifest) []string {
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) != len(jobs) {
		return []string{fmt.Sprintf("program ran %d simulations, benchmark replicated %d", len(names), len(jobs))}
	}
	var bad []string
	for i, n := range names {
		a := arts[n]
		if h := obs.ConfigHash(jobs[i].cfg); h != a.Manifest.ConfigHash {
			bad = append(bad, fmt.Sprintf("task %d (%s): config hash %s, program's %s", i, jobs[i].label, h, a.Manifest.ConfigHash))
			continue
		}
		var want, got map[string]any
		b, err := obs.MarshalCanonical(runs[i].summary)
		if err == nil {
			err = json.Unmarshal(b, &got)
		}
		if err == nil {
			err = json.Unmarshal(a.Summary, &want)
		}
		if err != nil || !reflect.DeepEqual(want, got) {
			bad = append(bad, fmt.Sprintf("task %d (%s): traced summary differs from the program's", i, jobs[i].label))
		}
	}
	return bad
}
