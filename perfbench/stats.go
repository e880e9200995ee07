package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// failedLatency is what a failed op contributes to the latency figures:
// it sorts above every real latency, so failures count against every
// percentile.
const failedLatency = time.Duration(math.MaxInt64)

// quantile returns the q-quantile of sorted by the nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median of float samples; the input is reordered.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sort.Float64s(x)
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// meanAcc accumulates a span's total duration and count.
type meanAcc struct {
	total time.Duration
	n     int64
}

func (a *meanAcc) add(d time.Duration) { a.total += d; a.n++ }

func (a *meanAcc) meanUS() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return us(a.total) / float64(a.n)
}

func acc(m map[string]*meanAcc, key string) *meanAcc {
	a := m[key]
	if a == nil {
		a = &meanAcc{}
		m[key] = a
	}
	return a
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *result) print() error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}
