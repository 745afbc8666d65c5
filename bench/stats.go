package main

import (
	"math"
	"sort"
)

// dist is a sample of one timing, sorted on first use.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64) { d.v = append(d.v, x); d.sorted = false }

func (d *dist) n() int { return len(d.v) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
}

// p returns the q-quantile by nearest rank (0 for an empty sample).
func (d *dist) p(q float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	d.sort()
	i := int(math.Ceil(q*float64(len(d.v)))) - 1
	if i < 0 {
		i = 0
	}
	return d.v[i]
}

// beyond is how many samples lie above the q-quantile's rank.
func (d *dist) beyond(q float64) int {
	return len(d.v) - int(math.Ceil(q*float64(len(d.v))))
}

// supports reports whether the q-quantile follows the reporting rule: a
// percentile is only quoted when at least ten samples lie beyond it.
func (d *dist) supports(q float64) bool { return d.beyond(q) >= 10 }

// highest returns the highest of the usual percentiles the sample supports
// under the ten-samples-beyond rule (0.5 when even p90 is out of reach).
func (d *dist) highest() float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if d.supports(q) {
			return q
		}
	}
	return 0.5
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method), so a spread computed here is the one the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
