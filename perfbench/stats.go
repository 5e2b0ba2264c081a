package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 for no samples (a layer the
// workload does not exercise).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupFigure is a run's set-up time: the lower quartile of its
// launches. A launch takes a few milliseconds, so any host hiccup
// during one adds to it; the lower quartile keeps those out.
func setupFigure(xs []float64) float64 { return quantile(xs, 0.25) }

// metrics collects a result's metric map.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
