package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that is
// the rule the benchmark contract states its spreads in. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i in {1, 3}
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and whether the sample supports it: a percentile is
// reported only when at least ten samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

func secs(d time.Duration) float64 { return d.Seconds() }

// opCount tallies operations attempted and failed. An operation is one
// Synthesize request, one Pareto sweep or one HTTP request; a timeout,
// an Unknown, an error, a non-200 or a reference mismatch fails it.
type opCount struct {
	attempted, failed int
	// firstErr keeps the first failure's description for the report.
	firstErr string
}

func (c *opCount) ok() { c.attempted++ }

func (c *opCount) fail(why string) {
	c.attempted++
	c.failed++
	if c.firstErr == "" {
		c.firstErr = why
	}
}

// record counts one operation, failed when err is non-nil.
func (c *opCount) record(err error) {
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.ok()
}

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstErr == "" {
		c.firstErr = o.firstErr
	}
}

func (c opCount) share() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
