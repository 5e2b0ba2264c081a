package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
	"repro/internal/tracez"
)

// policies are the refresh policies edram.us_per_window is reported
// for, by technique name.
var policies = []string{"baseline", "rpv", "rpd", "periodic-valid", "smart-refresh",
	"ecc-extended", "esteem", "esteem-allline", "no-refresh"}

// residualLimitPct bounds |sim.decomp_residual_pct| on the traced
// single-core sweep. The dual-core sweep reports its residual (the
// core scheduler and shared-L2 interleaving are not a layer of their
// own) without a bound.
const residualLimitPct = 10.0

// layerMetrics reports the simulator-side layers of lt. A layer a
// workload does not exercise reads 0.
func layerMetrics(m metrics, runs []simRun, lt *layerTimes) {
	simNs := float64(lt.simTime.Nanoseconds())
	accounted := lt.traceNs + lt.cacheNs + lt.coreNs + lt.edramNs + lt.energy
	var self []float64
	for _, r := range runs {
		self = append(self, ms(r.selfTime))
	}
	m.set("runner.task_self_ms", "ms", median(self))
	m.set("sim.sims", "count", float64(len(runs)))
	m.set("sim.instructions", "count", float64(lt.instr))
	m.set("sim.ns_per_instr", "ns", simNs/float64(lt.instr))
	m.set("sim.new_ms", "ms", lt.newMs)
	m.set("sim.decomp_residual_pct", "%", 100*(simNs-accounted)/simNs)
	m.set("trace.refs", "count", float64(lt.refs))
	m.set("trace.ns_per_ref", "ns", lt.nsPerRef)
	m.set("trace.share", "ratio", lt.traceNs/simNs)
	m.set("cache.l2_accesses", "count", float64(lt.l2Accesses))
	m.set("cache.ns_per_access", "ns", lt.nsPerAccess)
	m.set("cache.share", "ratio", lt.cacheNs/simNs)
	m.set("core.decisions", "count", float64(lt.decisions))
	m.set("core.us_per_decision", "us", lt.usPerDecision)
	m.set("core.share", "ratio", lt.coreNs/simNs)
	m.set("edram.refreshes", "count", float64(lt.refreshes))
	m.set("edram.share", "ratio", lt.edramNs/simNs)
	for _, pol := range policies {
		m.set("edram.us_per_window."+pol, "us", lt.usPerWindow[pol])
	}
	m.set("energy.evals", "count", float64(lt.evals))
	m.set("energy.ns_per_eval", "ns", lt.nsPerEval)
	m.set("energy.share", "ratio", lt.energy/simNs)
}

// serveLayerNames are the service-side layers; the sweeps do not
// touch them (no daemon, no store, no checkpoints), so they read 0 there.
var serveLayerNames = []struct{ name, unit string }{
	{"serve.submit_ms_p50", "ms"}, {"serve.queue_wait_ms_p99", "ms"}, {"serve.notify_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"}, {"castore.hit_ratio", "ratio"}, {"castore.get_ms_p50", "ms"},
	{"castore.put_ms_p50", "ms"}, {"castore.bytes_written_per_req", "B"}, {"ckpt.bytes", "B"},
	{"ckpt.encode_ms", "ms"}, {"ckpt.per_cold_run", "count"}, {"obs.encode_ms_p50", "ms"},
	{"load.late_ms_p99", "ms"}, {"load.conn_wait_ms_p99", "ms"},
}

// tracedSweep measures a sweep's layers: one untraced esteem-bench run
// (outputs checked, artifacts kept as the reference, runner load taken
// from its artifacts), then the same jobs traced in process on the
// runner's pool, each followed by its standalone per-layer replay.
func tracedSweep(e *env, s sweepSpec) (result, error) {
	dir, err := e.workDir(s.name + "-traced")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "untraced")
	base, err := launchSweep(e, s, out, false)
	if err != nil {
		return result{}, err
	}
	bad := s.checkOutputs(e.root, out)
	arts, err := readArtifacts(filepath.Join(out, "runs"))
	if err != nil {
		return result{}, err
	}
	os.RemoveAll(out)

	jobs := sweepJobs(s)
	runs, err := runPool(jobs, e.jobs)
	if err != nil {
		return result{}, err
	}
	bad = append(bad, checkReplication(jobs, runs, arts)...)
	lt, err := measureLayers(jobs, runs)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: len(bad) == 0, Attempted: len(jobs), Metrics: metrics{}}
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "perfbench: "+s.name+": "+b)
	}
	m := res.Metrics
	layerMetrics(m, runs, lt)
	for _, l := range serveLayerNames {
		m.set(l.name, l.unit, 0)
	}
	busy, tail := runnerLoad(base.tasks, e.jobs)
	m.set("runner.busy_frac", "ratio", busy)
	m.set("runner.tail_s", "s", tail.Seconds())
	m.set("p50_ms", "ms", quantile(base.simWall, 0.5))
	m.set("p99_ms", "ms", quantile(base.simWall, 0.99))
	m.set("capacity_rps", "1/s", float64(base.sims)/base.use.wall.Seconds())
	// Tracing overhead: the spans the in-process simulations recorded
	// times the cost of one, over their time. Timing the same
	// simulations with tracing and without, in alternating pairs, reads
	// the host's noise (−5% to +4% over 22 pairs), far above the
	// spans' cost.
	var spans uint64
	for _, r := range runs {
		spans += r.spans
	}
	m.set("tracez.overhead_pct", "%", 100*float64(spans)*spanCost()/float64(lt.simTime.Nanoseconds()))
	logLayers(s.name, m)
	if r := m["sim.decomp_residual_pct"].Value; s.cores == 1 && math.Abs(r) > residualLimitPct {
		return result{}, fmt.Errorf("layer decomposition misses the sim time by %.1f%% (limit ±%g%%)", r, residualLimitPct)
	}
	return res, nil
}

// tracedServe measures serve-mix's layers: fixed-rate phases on a
// daemon that records no trace and on one with its default tracing
// (the second of these with every job's span tree fetched from
// GET /v1/jobs/{id}/trace), the store and checkpoint layers timed
// through the in-process check's castore.Backend wrapper, and the
// simulator layers of the sampled jobs as on the sweeps.
func tracedServe(e *env) (result, error) {
	r, err := driveServe(e, true)
	if err != nil {
		return result{}, err
	}
	res, fs, cs, err := r.result(e)
	if err != nil {
		return result{}, err
	}
	m := res.Metrics

	// Span trees of the traced phase.
	var submit, fetch, notify, queue, self, get, put, encode []float64
	for _, o := range r.extra.outs {
		if !o.ok || o.tree == nil || o.tree.Root == nil {
			continue
		}
		submit = append(submit, ms(o.submitRTT))
		fetch = append(fetch, ms(o.resultRTT))
		root := o.tree.Root
		end := o.submitMid.Add(time.Duration(root.DurUS) * time.Microsecond)
		notify = append(notify, ms(o.terminal.Sub(end)))
		var runSelf int64
		root.walk(func(n *traceNode) {
			d := float64(n.DurUS) / 1e3
			switch n.Name {
			case "queue":
				queue = append(queue, d)
			case "store-get":
				get = append(get, d)
			case "store-put":
				put = append(put, d)
			case "encode":
				encode = append(encode, d)
			case "run", "task":
				runSelf += n.selfUS()
			}
		})
		self = append(self, float64(runSelf)/1e3)
	}
	if len(submit) == 0 {
		return result{}, fmt.Errorf("no span tree fetched in the traced phase")
	}
	m.set("serve.submit_ms_p50", "ms", median(submit))
	m.set("serve.queue_wait_ms_p99", "ms", quantile(queue, 0.99))
	m.set("serve.notify_ms_p50", "ms", median(notify))
	m.set("serve.result_ms_p50", "ms", median(fetch))
	c := r.fixed.counters
	hits := float64(c["esteem_serve_cache_hits_total"] + c["esteem_serve_cache_coalesced_total"])
	m.set("castore.hit_ratio", "ratio", hits/(hits+float64(c["esteem_serve_cache_misses_total"])))
	m.set("castore.get_ms_p50", "ms", median(get))
	m.set("castore.put_ms_p50", "ms", median(put))
	m.set("castore.bytes_written_per_req", "B", float64(r.fixed.stored)/float64(fs.attempted))
	m.set("obs.encode_ms_p50", "ms", median(encode))
	p50, _ := r.fixed.windowed()
	m.set("p50_ms", "ms", p50)
	m.set("p99_ms", "ms", quantile(fs.lat, 0.99))
	m.set("capacity_rps", "1/s", r.capacity())
	for _, p := range r.ladder {
		ps := p.stats()
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix rung %g rps: p99 %.2f ms, failed %d, refused %d, meets SLO %v\n",
			p.rate, quantile(ps.lat, 0.99), ps.failed, ps.refused, p.meetsSLO())
	}
	m.set("load.late_ms_p99", "ms", quantile(fs.late, 0.99))
	m.set("load.conn_wait_ms_p99", "ms", quantile(fs.connWait, 0.99))
	// Tracing overhead: daemon CPU per request with tracing on against
	// off, at the same rate, neither phase fetching a trace.
	us := r.untraced.stats()
	if t := r.untraced.tally(); r.untraced.counters["esteem_serve_trace_unsampled_total"] != t.admitted+t.tooMany {
		return result{}, fmt.Errorf("the untraced daemon sampled traces")
	}
	m.set("tracez.overhead_pct", "%", 100*(ms(r.fixed.cpu)/float64(fs.completed)/(ms(r.untraced.cpu)/float64(us.completed))-1))
	m.set("ckpt.per_cold_run", "count", float64(cs.ckpts)/float64(cs.computes))

	// Standalone checkpoint encoding on the FastJobSpec configuration.
	cfg, wl, err := unitConfig(r.sp.hot())
	if err != nil {
		return result{}, err
	}
	sizes, encs, err := checkpointCost(derive(cfg, wl), wl)
	if err != nil {
		return result{}, err
	}
	m.set("ckpt.bytes", "B", median(sizes))
	m.set("ckpt.encode_ms", "ms", median(encs))

	// Simulator layers of the sampled specs, on the runner's pool.
	var jobs []job
	for _, o := range r.fixed.outs {
		if len(jobs) == serveLayerJobs {
			break
		}
		if !o.hot {
			cfg, wl, err := unitConfig(r.sp.of(o.arrival))
			if err != nil {
				return result{}, err
			}
			jobs = append(jobs, newJob(cfg, wl, -1))
		}
	}
	runs, err := runPool(jobs, e.jobs)
	if err != nil {
		return result{}, err
	}
	lt, err := measureLayers(jobs, runs)
	if err != nil {
		return result{}, err
	}
	layerMetrics(m, runs, lt)
	// One single-simulation sweep per job: no batch for the runner to
	// balance.
	m.set("runner.busy_frac", "ratio", 0)
	m.set("runner.tail_s", "s", 0)
	// The daemon's own run + task span self time per job.
	m.set("runner.task_self_ms", "ms", median(self))
	logLayers("serve-mix", m)
	return res, nil
}

// spanCost times one interval-batch span as the simulator records it
// (child span, four attributes, end) on a tracer sized as esteem-bench
// sizes its own; it returns nanoseconds per span.
func spanCost() float64 {
	tracer := tracez.New(tracez.Config{RingSize: 1 << 18})
	root := tracer.Root("spans")
	var per []float64
	for k := 0; k < 5; k++ {
		const n = 1 << 15
		t := time.Now()
		for i := 0; i < n; i++ {
			iv := root.Child("interval")
			iv.SetAttrInt("end_cycle", int64(i))
			iv.SetAttrInt("sim_cycles", int64(i))
			iv.SetAttrInt("refreshes", int64(i))
			iv.SetAttrFloat("active_ratio", float64(i))
			iv.End()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(per)
}

// serveLayerJobs is how many cold specs the serve-mix layer accounting
// simulates in process.
const serveLayerJobs = 16

// checkpointCost times Simulator.Checkpoint at every boundary of one
// run of cfg, returning the encoded sizes (bytes) and times (ms).
func checkpointCost(cfg sim.Config, wl []string) (sizes, encs []float64, err error) {
	for k := 0; k < 3; k++ {
		sm, err := sim.New(cfg, wl)
		if err != nil {
			return nil, nil, err
		}
		var cerr error
		sm.SetCheckpointHook(func(sim.CheckpointInfo) {
			t := time.Now()
			b, err := sm.Checkpoint()
			encs = append(encs, ms(time.Since(t)))
			sizes = append(sizes, float64(len(b)))
			if err != nil {
				cerr = err
			}
		})
		if _, err := sm.Run(); err != nil {
			return nil, nil, err
		}
		if cerr != nil {
			return nil, nil, cerr
		}
	}
	if len(encs) == 0 {
		return nil, nil, fmt.Errorf("no checkpoint boundary in the run")
	}
	return sizes, encs, nil
}

// logLayers prints the layer breakdown to stderr for humans.
func logLayers(name string, m metrics) {
	fmt.Fprintf(os.Stderr, "perfbench: %s layers: sim %.2f ns/instr; trace %.1f%%, cache %.1f%%, core %.1f%%, edram %.1f%%, energy %.1f%%, residual %.1f%%; overhead %.1f%%\n",
		name, m["sim.ns_per_instr"].Value, 100*m["trace.share"].Value, 100*m["cache.share"].Value,
		100*m["core.share"].Value, 100*m["edram.share"].Value, 100*m["energy.share"].Value,
		m["sim.decomp_residual_pct"].Value, m["tracez.overhead_pct"].Value)
}
