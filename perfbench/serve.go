package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/cliflags"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serve-mix shape. The fixed rate is about 40% of the capacity seen
// at the seed on a 2-CPU host; the SLO bounds p99 for capacity_rps.
const (
	fixedRate     = 80.0 // requests/s
	hotFraction   = 0.5
	jitter        = 0.5 // each arrival moves up to ±jitter/2 of the mean gap
	warmSeconds   = 1.5
	warmRate      = 40.0
	sloMs         = 100.0
	rungSeconds   = 2.5
	serveLaunches = 31 // extra daemon launches sampling set-up time
	requestLimit  = 20 * time.Second
	// maxConns caps the generator's HTTP connections. Each request
	// holds one for its SSE wait: with nproc connections the
	// generator, not the daemon, set the tail.
	maxConns = 32
	// queueDepth is the daemon's admission queue (-queue; 16 by
	// default). At the fixed rate a host stall of a few hundred
	// milliseconds fills 16 slots, and the daemon then refuses
	// requests with 429; deep enough to hold 25 s of arrivals at the
	// fixed rate, a stall delays them instead, and a run's requests
	// all complete. Past capacity a backlog still grows, which the
	// latency figures and the ladder's backlog test show.
	queueDepth = 2048
)

// ladder is the capacity search's offered rates, climbed in order
// until one misses the SLO twice in a row.
var ladder = []float64{100, 125, 150, 175, 200, 225, 250, 300}

// daemon is one running esteem-serve.
type daemon struct {
	cmd   *exec.Cmd
	done  chan error
	url   string
	store string
	setup time.Duration // launch -> first healthy /healthz
}

// startDaemon launches esteem-serve on a free port with a disk store
// under dir, plus any extra flags, and waits for its first healthy
// /healthz.
func startDaemon(e *env, dir string, extra ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	d := &daemon{store: filepath.Join(dir, "store"), done: make(chan error, 1)}
	d.cmd = e.command(nil, "esteem-serve", append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache", d.store,
		"-workers", strconv.Itoa(e.jobs), "-queue", strconv.Itoa(queueDepth),
		"-drain-timeout", "5s"}, extra...)...)
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(30 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("esteem-serve not healthy within 30s")
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("esteem-serve exited during start: %v", err)
		default:
		}
		if d.url == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
				continue
			}
			d.url = "http://" + strings.TrimSpace(string(b))
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			d.setup = time.Since(t0)
			return d, nil
		}
	}
}

// stop drains the daemon and waits for it to exit; the usage it
// returns carries the daemon's whole-life CPU and peak RSS.
func (d *daemon) stop() (usage, error) {
	err := stop(d.cmd, d.done, 10*time.Second)
	if d.cmd.ProcessState == nil {
		return usage{}, err
	}
	return usageOf(d.cmd.ProcessState, 0), nil
}

func (d *daemon) cpu() time.Duration {
	c, _ := procCPU(d.cmd.Process.Pid)
	return c
}

// arrival is one scheduled request.
type arrival struct {
	at  time.Duration // offset from the phase start
	hot bool
	seq int // global sequence: cold spec seeds derive from it
}

// schedule builds one constant-rate phase: evenly spaced slots with
// seeded jitter and an exact, seeded hot/cold split.
func schedule(rng *rand.Rand, rate, seconds float64, firstSeq int) []arrival {
	n := int(math.Round(rate * seconds))
	gap := seconds / float64(n)
	hot := rng.Perm(n)
	nHot := int(math.Round(float64(n) * hotFraction))
	isHot := make([]bool, n)
	for _, i := range hot[:nHot] {
		isHot[i] = true
	}
	out := make([]arrival, n)
	for i := range out {
		off := (float64(i) + 0.5 + jitter*(rng.Float64()-0.5)) * gap
		out[i] = arrival{at: time.Duration(off * float64(time.Second)), hot: isHot[i], seq: firstSeq + i}
	}
	return out
}

// specs maps arrivals to job specs: one shared hot spec per run, a
// unique cold spec per arrival (the load package's convention).
type specs struct{ seed uint64 }

func (s specs) hot() serve.JobSpec { return serve.FastJobSpec(s.seed<<20 | 1) }

func (s specs) of(a arrival) serve.JobSpec {
	if a.hot {
		return s.hot()
	}
	return serve.FastJobSpec(s.seed<<20 | uint64(a.seq)<<1)
}

// outcome is one request as the client saw it.
type outcome struct {
	arrival
	due, fired time.Time
	ok         bool
	submitCode int    // HTTP status of the submission; 0 when none came
	state      string // the terminal state the client saw
	refused    bool   // 429 or 503 at submission
	err        string
	latency    time.Duration // due -> result body read
	connWait   time.Duration // waiting for one of the client's connections
	submitRTT  time.Duration
	resultRTT  time.Duration
	submitMid  time.Time // midpoint of the submit exchange
	terminal   time.Time // client saw the terminal state
	jobID, key string
	body       []byte
	tree       *traceTree // traced phases only
}

// client is the load generator's HTTP side: at most maxConns
// connections.
type client struct {
	base  string
	http  *http.Client
	conns chan struct{}
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns}
	return &client{base: base, http: &http.Client{Transport: tr}, conns: make(chan struct{}, conns)}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// exchange runs one HTTP exchange on one of the client's connections,
// reading the whole body; consume, when set, reads it instead.
func (c *client) exchange(ctx context.Context, o *outcome, method, path string, body []byte, consume func(io.Reader) error) (int, []byte, error) {
	w0 := time.Now()
	select {
	case c.conns <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	defer func() { <-c.conns }()
	o.connWait += time.Since(w0)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if consume != nil && resp.StatusCode == http.StatusOK {
		err := consume(resp.Body)
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// request runs submit -> wait for a terminal state -> fetch result.
func (c *client) request(ctx context.Context, o *outcome, spec []byte, traced bool) {
	ctx, cancel := context.WithTimeout(ctx, requestLimit)
	defer cancel()
	t := time.Now()
	code, body, err := c.exchange(ctx, o, http.MethodPost, "/v1/jobs", spec, nil)
	o.submitRTT = time.Since(t)
	o.submitMid = t.Add(o.submitRTT / 2)
	if err == nil {
		o.submitCode = code
	}
	switch {
	case err != nil:
		o.err = "submit: " + err.Error()
		return
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		o.refused = true
		return
	case code != http.StatusAccepted:
		o.err = fmt.Sprintf("submit: HTTP %d: %s", code, body)
		return
	}
	var view struct {
		ID    string `json:"id"`
		Units []struct {
			Key string `json:"key"`
		} `json:"units"`
	}
	if err := json.Unmarshal(body, &view); err != nil || len(view.Units) != 1 {
		o.err = fmt.Sprintf("submit: bad job view: %v", err)
		return
	}
	o.jobID, o.key = view.ID, view.Units[0].Key

	state := ""
	_, _, err = c.exchange(ctx, o, http.MethodGet, "/v1/jobs/"+o.jobID+"/events", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: ") && event == "state":
				var ev struct {
					State string `json:"state"`
				}
				if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil && serve.State(ev.State).Terminal() {
					state = ev.State
					o.state, o.terminal = state, time.Now()
					return nil
				}
			}
		}
		return sc.Err()
	})
	if err != nil || state != string(serve.StateDone) {
		o.err = fmt.Sprintf("wait: state %q: %v", state, err)
		return
	}
	t = time.Now()
	code, body, err = c.exchange(ctx, o, http.MethodGet, "/v1/jobs/"+o.jobID+"/result", nil, nil)
	o.resultRTT = time.Since(t)
	if err != nil || code != http.StatusOK {
		o.err = fmt.Sprintf("result: HTTP %d: %v", code, err)
		return
	}
	o.body = body
	o.latency = time.Since(o.due)
	o.ok = true
	if traced {
		code, tb, err := c.exchange(ctx, o, http.MethodGet, "/v1/jobs/"+o.jobID+"/trace", nil, nil)
		if err == nil && code == http.StatusOK {
			o.tree = new(traceTree)
			if json.Unmarshal(tb, o.tree) != nil {
				o.tree = nil
			}
		}
	}
}

// phase is the outcome of one constant-rate phase.
type phase struct {
	rate     float64
	outs     []*outcome
	wall     time.Duration   // first due -> last request finished
	cpu      time.Duration   // daemon CPU over the phase
	cpuMarks []time.Duration // daemon CPU at each window boundary and the end
	counters map[string]uint64
	stored   int64 // store bytes written over the phase
	rung     bool  // a capacity-ladder rung
}

// runPhase fires the arrivals open-loop at their due times, waits for
// every request, and records the daemon's CPU and store growth.
func (c *client) runPhase(ctx context.Context, d *daemon, sp specs, rate float64, arrivals []arrival, traced bool) (*phase, error) {
	p := &phase{rate: rate}
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	stored0 := dirBytes(d.store)
	cpu0 := d.cpu()
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	p.cpuMarks = []time.Duration{cpu0}
	for _, a := range arrivals {
		if a.at >= time.Duration(len(p.cpuMarks))*window {
			p.cpuMarks = append(p.cpuMarks, d.cpu())
		}
		o := &outcome{arrival: a, due: start.Add(a.at)}
		body, err := json.Marshal(sp.of(a))
		if err != nil {
			return nil, err
		}
		time.Sleep(time.Until(o.due))
		o.fired = time.Now()
		p.outs = append(p.outs, o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.request(ctx, o, body, traced)
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpuMarks = append(p.cpuMarks, d.cpu())
	p.cpu = p.cpuMarks[len(p.cpuMarks)-1] - cpu0
	p.stored = dirBytes(d.store) - stored0
	// The daemon counts a job just after publishing its terminal state,
	// so its last counts may trail what the client saw by a moment.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		after, err := c.scrape(ctx)
		if err != nil {
			return nil, err
		}
		p.counters = map[string]uint64{}
		for k, v := range after.Counters {
			p.counters[k] = v - before.Counters[k]
		}
		n := p.counters
		if n[jobsAccepted] <= n[jobsCompleted]+n[jobsFailed] || time.Now().After(deadline) {
			return p, nil
		}
	}
}

// The daemon's job counters a phase is reconciled against.
const (
	jobsAccepted  = "esteem_serve_jobs_accepted_total"
	jobsRejected  = "esteem_serve_jobs_rejected_total"
	jobsCompleted = "esteem_serve_jobs_completed_total"
	jobsFailed    = "esteem_serve_jobs_failed_total"
)

// tally counts a phase's requests as the client saw them.
type tally struct {
	admitted, tooMany, done, failed uint64
	unadmitted                      uint64 // no answer, or refused other than by a full queue
}

func (p *phase) tally() tally {
	var t tally
	for _, o := range p.outs {
		switch o.submitCode {
		case http.StatusAccepted:
			t.admitted++
		case http.StatusTooManyRequests:
			t.tooMany++
		default:
			t.unadmitted++
		}
		switch {
		case o.state == string(serve.StateDone):
			t.done++
		case o.state != "":
			t.failed++
		}
	}
	return t
}

// reconcile checks the client's view of a phase against the daemon's
// counters over it: the daemon admitted, refused, completed and failed
// exactly the jobs the client saw so, and attempted = completed +
// failed + refused on the daemon's side (plus requests it never
// answered or refused for another reason than a full queue). A request
// lost, duplicated or miscounted on either side fails the run.
func (p *phase) reconcile() []string {
	t, c := p.tally(), p.counters
	var bad []string
	for _, x := range []struct {
		what           string
		daemon, client uint64
	}{
		{"admitted", c[jobsAccepted], t.admitted},
		{"refused (429)", c[jobsRejected], t.tooMany},
		{"completed", c[jobsCompleted], t.done},
		{"failed", c[jobsFailed], t.failed},
	} {
		if x.daemon != x.client {
			bad = append(bad, fmt.Sprintf("phase at %g rps: the daemon %s %d jobs, the client saw %d", p.rate, x.what, x.daemon, x.client))
		}
	}
	if n := c[jobsCompleted] + c[jobsFailed] + c[jobsRejected] + t.unadmitted; n != uint64(len(p.outs)) {
		bad = append(bad, fmt.Sprintf("phase at %g rps: attempted %d != completed %d + failed %d + refused %d (daemon) + unadmitted %d",
			p.rate, len(p.outs), c[jobsCompleted], c[jobsFailed], c[jobsRejected], t.unadmitted))
	}
	return bad
}

func (c *client) scrape(ctx context.Context) (serve.MetricsView, error) {
	var v serve.MetricsView
	var o outcome
	code, b, err := c.exchange(ctx, &o, http.MethodGet, "/metrics?format=json", nil, nil)
	if err != nil || code != http.StatusOK {
		return v, fmt.Errorf("GET /metrics: HTTP %d: %v", code, err)
	}
	return v, json.Unmarshal(b, &v)
}

// stats summarises a phase: latencies, counts, and the generator's own
// delays. A failed or refused request counts at the request time limit,
// which misses any SLO.
type phaseStats struct {
	attempted, completed, failed, refused int
	lat                                   []float64 // ms
	late, connWait                        []float64 // ms
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	for _, o := range p.outs {
		s.attempted++
		s.late = append(s.late, ms(o.fired.Sub(o.due)))
		s.connWait = append(s.connWait, ms(o.connWait))
		switch {
		case o.ok:
			s.completed++
			s.lat = append(s.lat, ms(o.latency))
		case o.refused:
			s.refused++
			s.lat = append(s.lat, ms(requestLimit))
		default:
			s.failed++
			s.lat = append(s.lat, ms(requestLimit))
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window splits a fixed-rate phase for its end-to-end figures: each
// window's median latency and daemon CPU per completed request, and
// the median over windows, so that a host stall shorter than half the
// phase does not move the run's figure.
const window = 6 * time.Second

// windowed returns the median over windows of the per-window median
// latency (ms) and of the daemon CPU per completed request (ms).
func (p *phase) windowed() (p50, cpuPerReq float64) {
	n := len(p.cpuMarks) - 1
	lat := make([][]float64, n)
	done := make([]int, n)
	for _, o := range p.outs {
		w := min(int(o.at/window), n-1)
		if o.ok {
			lat[w] = append(lat[w], ms(o.latency))
			done[w]++
		} else {
			lat[w] = append(lat[w], ms(requestLimit))
		}
	}
	var p50s, cpus []float64
	for w := 0; w < n; w++ {
		if len(lat[w]) == 0 || done[w] == 0 {
			continue
		}
		p50s = append(p50s, median(lat[w]))
		cpus = append(cpus, ms(p.cpuMarks[w+1]-p.cpuMarks[w])/float64(done[w]))
	}
	return median(p50s), median(cpus)
}

// meetsSLO reports whether a ladder rung was sustained: nothing failed
// or refused, p99 within the SLO, and no growing backlog (the last
// tenth of the arrivals also within the SLO).
func (p *phase) meetsSLO() bool {
	s := p.stats()
	if s.failed+s.refused > 0 || quantile(s.lat, 0.99) > sloMs {
		return false
	}
	tail := s.lat[len(s.lat)*9/10:]
	return len(tail) == 0 || quantile(tail, 1) <= sloMs
}

// serveRun is everything one serve-mix run measured.
type serveRun struct {
	setups   []float64
	phases   []*phase // every phase, in order
	fixed    *phase
	untraced *phase // traced runs: the fixed rate on a daemon that records no trace
	extra    *phase // traced runs: the fixed rate again, every span tree fetched
	ladder   []*phase
	use      usage // the measured daemon's whole life
	sp       specs
	rng      *rand.Rand
	seq      int
}

// phaseFunc runs one constant-rate phase against the current daemon;
// traced fetches every request's span tree.
type phaseFunc func(rate, secs float64, traced bool) (*phase, error)

// withDaemon launches one daemon (one more set-up sample), runs a warm-up
// phase and then fn's phases against it, and stops it; the usage it
// returns is the daemon's whole life.
func (r *serveRun) withDaemon(e *env, dir string, args []string, fn func(phaseFunc) error) (usage, error) {
	d, err := startDaemon(e, dir, args...)
	if err != nil {
		return usage{}, err
	}
	r.setups = append(r.setups, d.setup.Seconds())
	c := newClient(d.url, maxConns)
	defer c.close()
	run := func(rate, secs float64, traced bool) (*phase, error) {
		a := schedule(r.rng, rate, secs, r.seq)
		r.seq += len(a)
		p, err := c.runPhase(context.Background(), d, r.sp, rate, a, traced)
		if err == nil {
			r.phases = append(r.phases, p)
		}
		return p, err
	}
	if _, err = run(warmRate, warmSeconds, false); err == nil {
		err = fn(run)
	}
	if err != nil {
		d.stop()
		return usage{}, err
	}
	use, err := d.stop()
	if err != nil {
		return usage{}, fmt.Errorf("esteem-serve exit: %v", err)
	}
	return use, nil
}

// driveServe runs the serve-mix schedule: set-up samples, then a
// daemon that takes a warm-up phase and the fixed-rate phase for the
// run's seconds. A traced run splits those seconds in three fixed-rate
// phases: one on a daemon that records no trace, then on a daemon with
// the default tracing one plain and one with every span tree fetched;
// then it climbs the capacity ladder.
func driveServe(e *env, traced bool) (*serveRun, error) {
	dir, err := e.workDir("serve-mix")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &serveRun{sp: specs{seed: uint64(e.seed)}, rng: rand.New(rand.NewSource(e.seed))}
	for i := 0; i < serveLaunches; i++ {
		d, err := startDaemon(e, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d.setup.Seconds())
		d.stop()
	}
	rate := fixedRate
	if e.rate > 0 {
		rate = e.rate
	}
	if !traced {
		r.use, err = r.withDaemon(e, filepath.Join(dir, "daemon"), nil, func(run phaseFunc) (err error) {
			r.fixed, err = run(rate, e.seconds.Seconds(), false)
			return err
		})
		return r, err
	}
	secs := e.seconds.Seconds() / 3
	// The program has no switch for tracing: -trace-sample takes a ratio
	// in (0, 1], and 0 selects 1. The smallest ratio records no trace
	// in practice; tracedServe checks that every trace was sampled out.
	if _, err := r.withDaemon(e, filepath.Join(dir, "untraced"), []string{"-trace-sample", "1e-12"}, func(run phaseFunc) (err error) {
		r.untraced, err = run(rate, secs, false)
		return err
	}); err != nil {
		return nil, err
	}
	r.use, err = r.withDaemon(e, filepath.Join(dir, "daemon"), nil, func(run phaseFunc) (err error) {
		if r.fixed, err = run(rate, secs, false); err != nil {
			return err
		}
		if r.extra, err = run(rate, secs, true); err != nil {
			return err
		}
		for _, rr := range ladder {
			// A rung that misses the SLO is run once more before the
			// climb stops, so one host stall does not end the search.
			for try := 0; ; try++ {
				p, err := run(rr, rungSeconds, false)
				if err != nil {
					return err
				}
				p.rung = true
				r.ladder = append(r.ladder, p)
				if p.meetsSLO() {
					break
				}
				if try == 1 {
					return nil
				}
			}
		}
		return nil
	})
	return r, err
}

// capacity is the highest offered rate that met the SLO: the fixed
// rate or a ladder rung (the climb stops at the first rate that missed
// twice, so every lower rung met it).
func (r *serveRun) capacity() float64 {
	best := 0.0
	for _, p := range append([]*phase{r.fixed}, r.ladder...) {
		if p.meetsSLO() {
			best = math.Max(best, p.rate)
		}
	}
	return best
}

// check verifies every response: hot bodies byte-identical to each
// other and to an in-process runner.Sweep computation of the hot spec,
// a sample of cold bodies identical to their in-process computation,
// and every phase's requests reconciled with the daemon's counters. It
// returns the mismatches and the in-process store used.
func (r *serveRun) check(e *env) ([]string, *countingStore, error) {
	dir, err := e.workDir("serve-check")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := castore.Open(dir, 64)
	if err != nil {
		return nil, nil, err
	}
	cs := &countingStore{Backend: st}
	var bad []string
	hotBody, hotKey, err := expected(cs, r.sp.hot())
	if err != nil {
		return nil, nil, err
	}
	coldChecked := 0
	for _, p := range r.phases {
		bad = append(bad, p.reconcile()...)
		for _, o := range p.outs {
			if !o.ok {
				continue
			}
			if o.hot {
				if o.key != hotKey || !bytes.Equal(o.body, hotBody) {
					bad = append(bad, fmt.Sprintf("hot request %d: response differs from the in-process result", o.seq))
				}
				continue
			}
			if coldChecked >= coldSamples || o.seq%7 != 0 {
				continue
			}
			coldChecked++
			want, key, err := expected(cs, r.sp.of(o.arrival))
			if err != nil {
				return nil, nil, err
			}
			if o.key != key || !bytes.Equal(o.body, want) {
				bad = append(bad, fmt.Sprintf("cold request %d: response differs from the in-process result", o.seq))
			}
		}
	}
	if coldChecked == 0 {
		bad = append(bad, "no cold response was checked")
	}
	return bad, cs, nil
}

// coldSamples bounds how many cold responses a run recomputes.
const coldSamples = 12

// unitConfig expands a single-unit FastJobSpec the way the daemon
// does: its config overrides onto sim.DefaultConfig, canonical
// technology, the named technique.
func unitConfig(spec serve.JobSpec) (sim.Config, []string, error) {
	cfg := sim.DefaultConfig(1)
	dec := json.NewDecoder(bytes.NewReader(spec.Config))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, nil, err
	}
	technology, err := cliflags.ParseTechnology(cfg.Technology)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Technology = technology
	if len(spec.Techniques) != 1 || len(spec.Benchmarks) != 1 {
		return cfg, nil, fmt.Errorf("spec is not single-unit")
	}
	if cfg.Technique, err = cliflags.ParseTechnique(spec.Techniques[0]); err != nil {
		return cfg, nil, err
	}
	return cfg, spec.Benchmarks[0], nil
}

// expected computes a spec's artifact in process through runner.Sweep
// over store and returns its bytes and content address.
func expected(store castore.Backend, spec serve.JobSpec) ([]byte, string, error) {
	cfg, wl, err := unitConfig(spec)
	if err != nil {
		return nil, "", err
	}
	key, err := runner.CacheKey(cfg, wl)
	if err != nil {
		return nil, "", err
	}
	sw := runner.NewSweep(1)
	sw.SetCache(store)
	sw.Sim(cfg, wl)
	if err := sw.Run(context.Background()); err != nil {
		return nil, "", err
	}
	b, ok, err := store.Get(key)
	if err != nil || !ok {
		return nil, "", fmt.Errorf("in-process artifact %s missing: %v", key, err)
	}
	return b, key, nil
}

// runServe measures serve-mix end to end at the fixed rate.
func runServe(e *env) (result, error) {
	r, err := driveServe(e, false)
	if err != nil {
		return result{}, err
	}
	res, s, _, err := r.result(e)
	if err != nil {
		return result{}, err
	}
	instr, err := resultInstructions(r.fixed)
	if err != nil {
		return result{}, err
	}
	m := res.Metrics
	m.set("setup_s", "s", setupFigure(r.setups))
	m.set("sim_minstr_per_s", "Minstr/s", float64(s.completed)*float64(instr)/1e6/r.fixed.wall.Seconds())
	m.set("sweep_cpu_s", "s", r.fixed.cpu.Seconds())
	m.set("peak_rss_mb", "MB", r.use.peakMB)
	_, cpuPerReq := r.fixed.windowed()
	m.set("cpu_ms_per_req", "ms", cpuPerReq)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix fixed %g rps: %d requests, p50 %.2f ms, p99 %.2f ms (%d samples), late p99 %.2f ms, conn wait p99 %.2f ms\n",
		r.fixed.rate, s.attempted, quantile(s.lat, 0.5), quantile(s.lat, 0.99), len(s.lat),
		quantile(s.late, 0.99), quantile(s.connWait, 0.99))
	return res, nil
}

// result checks a serve-mix run's responses and validity and counts
// its requests; it returns the fixed-rate phase's statistics.
func (r *serveRun) result(e *env) (result, phaseStats, *countingStore, error) {
	bad, cs, err := r.check(e)
	if err != nil {
		return result{}, phaseStats{}, nil, err
	}
	res := result{Correct: len(bad) == 0, Metrics: metrics{}}
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "perfbench: serve-mix: "+b)
	}
	// Ladder rungs past capacity are refused by design; they are not
	// failures of the run.
	for _, p := range r.phases {
		if p.rung {
			continue
		}
		s := p.stats()
		res.Attempted += s.attempted
		res.Failed += s.failed + s.refused
		for _, o := range p.outs {
			switch {
			case o.refused:
				fmt.Fprintf(os.Stderr, "perfbench: serve-mix: request %d refused: HTTP %d\n", o.seq, o.submitCode)
			case o.err != "":
				fmt.Fprintf(os.Stderr, "perfbench: serve-mix: request %d failed: %s\n", o.seq, o.err)
			}
		}
	}
	s := r.fixed.stats()
	return res, s, cs, r.valid(s)
}

// valid rejects a run whose tail latency the generator, not the
// daemon, set: when its own lateness in firing requests reaches half
// the measured p99, the run is invalid and is not scored.
func (r *serveRun) valid(s phaseStats) error {
	late := quantile(s.late, 0.99)
	if p99 := quantile(s.lat, 0.99); late > 0.5*p99 {
		return fmt.Errorf("invalid run: generator late by %.2f ms at p99 against a %.2f ms latency p99", late, p99)
	}
	return nil
}

// resultInstructions reads the measured instruction count a result
// artifact reports (identical for every FastJobSpec result).
func resultInstructions(p *phase) (uint64, error) {
	for _, o := range p.outs {
		if o.ok {
			var a struct {
				Summary struct {
					Instructions uint64 `json:"instructions"`
				} `json:"summary"`
			}
			if err := json.Unmarshal(o.body, &a); err != nil {
				return 0, err
			}
			return a.Summary.Instructions, nil
		}
	}
	return 0, fmt.Errorf("no completed request")
}

// countingStore wraps a castore.Backend and counts what the runner
// asks of the store layer: computations (cold runs) and the prefix
// checkpoints they save.
type countingStore struct {
	castore.Backend
	mu              sync.Mutex
	computes, ckpts int
}

func (c *countingStore) GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	return c.Backend.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		c.mu.Lock()
		c.computes++
		c.mu.Unlock()
		return compute(ctx)
	})
}

func (c *countingStore) PutCheckpoint(base string, meta castore.CheckpointMeta, data []byte) error {
	c.mu.Lock()
	c.ckpts++
	c.mu.Unlock()
	return c.Backend.PutCheckpoint(base, meta, data)
}

// traceTree is the JSON span tree GET /v1/jobs/{id}/trace serves.
type traceTree struct {
	Root *traceNode `json:"root"`
}

type traceNode struct {
	Name     string       `json:"name"`
	StartUS  int64        `json:"start_us"`
	DurUS    int64        `json:"dur_us"`
	Children []*traceNode `json:"children"`
}

// selfUS is a span's duration minus the union of its children's.
func (n *traceNode) selfUS() int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range n.Children {
		ivs = append(ivs, iv{c.StartUS, c.StartUS + c.DurUS})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(math.MinInt64)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return n.DurUS - covered
}

// walk visits every node of the tree.
func (n *traceNode) walk(fn func(*traceNode)) {
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}
