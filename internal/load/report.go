// Report is the load generator's output and the unit the
// BENCH_serve.json trajectory records: per-phase and overall
// latency/throughput plus server-side cache behaviour, with the gate
// rules `esteem-gate serve check` applies in CI.
package load

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Quantiles summarises a latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// quantilesOf computes Quantiles from raw latencies (milliseconds).
func quantilesOf(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Quantiles{
		P50:  at(0.50),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}

// PhaseStats is the client-side outcome of one phase (or the run).
type PhaseStats struct {
	Name       string  `json:"name"`
	OfferedRPS float64 `json:"offered_rps"`
	// Requests = Completed + Rejected + Errors.
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	// Rejected counts 429 admission rejections (load shedding, not
	// failure); Errors everything else (transport, job failure).
	Rejected int `json:"rejected_429"`
	Errors   int `json:"errors"`
	// ConnRetries counts transparently retried connection errors
	// (server start/drain windows).
	ConnRetries int `json:"conn_retries"`
	// AchievedRPS is completions over the phase's nominal duration.
	AchievedRPS float64   `json:"achieved_rps"`
	Latency     Quantiles `json:"latency"`
}

// CacheStats is the server-side /metrics delta over a window. For
// per-phase windows the attribution is approximate — an open-loop
// phase's stragglers complete under the next phase's scrape — but the
// overall (post-drain) delta is exact.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Computes  uint64 `json:"computes"`
	// HitRate counts coalesced lookups as hits: they were served by
	// another request's compute.
	HitRate         float64 `json:"hit_rate"`
	SimsExecuted    uint64  `json:"sims_executed"`
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms"`
}

// PhaseReport pairs the client- and server-side view of one phase.
type PhaseReport struct {
	PhaseStats
	Cache CacheStats `json:"cache"`
}

// HistBucket is one cumulative latency bucket of a report.
type HistBucket struct {
	LEms  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

// Report is one dated load-generator run: one BENCH_serve.json entry.
type Report struct {
	Date   string `json:"date"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Note   string `json:"note,omitempty"`

	Seed        int64   `json:"seed"`
	HotFraction float64 `json:"hot_fraction"`
	Jitter      float64 `json:"jitter"`

	Phases  []PhaseReport `json:"phases"`
	Overall PhaseStats    `json:"overall"`
	// Cache is the exact post-drain metrics delta for the whole run.
	Cache CacheStats `json:"cache"`
	// Histogram is the end-to-end request latency distribution
	// (cumulative counts, completed requests only).
	Histogram []HistBucket `json:"latency_histogram"`
}

// stampHost fills the host/toolchain fields (Date is set by the
// caller that owns the clock).
func (r *Report) stampHost() {
	r.Go = runtime.Version()
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.CPUs = runtime.NumCPU()
}

// The service-level gate's bounds. Service latency on shared CI
// runners is far noisier than ns/op microbenchmarks, so the relative
// bounds are loose; the absolute sanity checks (non-zero latency and
// throughput, bounded error rate, hit rate matching the configured
// mix) hold regardless of baseline.
const (
	// MaxP99Factor bounds overall p99 at this factor x the baseline's.
	MaxP99Factor = 10.0
	// MinThroughputFactor bounds overall achieved RPS at this factor x
	// the baseline's.
	MinThroughputFactor = 0.25
	// MaxErrorRate bounds errors/requests (429s excluded).
	MaxErrorRate = 0.01
	// HitRateTolerance bounds |measured hit rate - configured hot
	// fraction|.
	HitRateTolerance = 0.15
)

// Check gates a report: absolute sanity always, relative bounds
// against base when non-nil. It returns the first violation.
func Check(base *Report, rep Report) error {
	o := rep.Overall
	if o.Requests == 0 {
		return fmt.Errorf("load gate: report carries no requests")
	}
	if o.Completed == 0 {
		return fmt.Errorf("load gate: no request completed (%d rejected, %d errors)", o.Rejected, o.Errors)
	}
	if o.Latency.P50 <= 0 || o.Latency.P99 <= 0 {
		return fmt.Errorf("load gate: degenerate latency quantiles (p50=%.3fms p99=%.3fms)", o.Latency.P50, o.Latency.P99)
	}
	if o.AchievedRPS <= 0 {
		return fmt.Errorf("load gate: zero achieved throughput")
	}
	if rate := float64(o.Errors) / float64(o.Requests); rate > MaxErrorRate {
		return fmt.Errorf("load gate: error rate %.3f exceeds %.3f (%d/%d failed)",
			rate, MaxErrorRate, o.Errors, o.Requests)
	}
	if d := math.Abs(rep.Cache.HitRate - rep.HotFraction); d > HitRateTolerance {
		return fmt.Errorf("load gate: cache hit rate %.3f vs configured hot fraction %.3f (|Δ|=%.3f > %.3f)",
			rep.Cache.HitRate, rep.HotFraction, d, HitRateTolerance)
	}
	if base == nil {
		return nil
	}
	b := base.Overall
	if b.Latency.P99 > 0 && o.Latency.P99 > MaxP99Factor*b.Latency.P99 {
		return fmt.Errorf("load gate: p99 %.2fms exceeds %gx baseline %.2fms",
			o.Latency.P99, MaxP99Factor, b.Latency.P99)
	}
	if b.AchievedRPS > 0 && o.AchievedRPS < MinThroughputFactor*b.AchievedRPS {
		return fmt.Errorf("load gate: throughput %.1f rps below %gx baseline %.1f rps",
			o.AchievedRPS, MinThroughputFactor, b.AchievedRPS)
	}
	return nil
}

// Degrade returns a copy of the report with latencies inflated and
// throughput deflated by factor: a synthetic regression that a
// correct gate must reject (the load-smoke lane's self-test).
func Degrade(rep Report, factor float64) Report {
	out := rep
	scaleQ := func(q Quantiles) Quantiles {
		q.P50 *= factor
		q.P99 *= factor
		q.P999 *= factor
		q.Max *= factor
		q.Mean *= factor
		return q
	}
	out.Overall.Latency = scaleQ(out.Overall.Latency)
	out.Overall.AchievedRPS /= factor
	out.Phases = append([]PhaseReport(nil), rep.Phases...)
	for i := range out.Phases {
		out.Phases[i].Latency = scaleQ(out.Phases[i].Latency)
		out.Phases[i].AchievedRPS /= factor
	}
	return out
}
