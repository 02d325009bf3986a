package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs, interpolating between the two
// nearest ranks; NaN when xs is empty. xs is sorted in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[i]) + (pos-float64(i))*float64(xs[i+1]-xs[i])
}

// medianF returns the median of xs, NaN when xs is empty.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// latencyLine prints a latency distribution in µs with its sample count.
func latencyLine(w io.Writer, name string, ns []int64) {
	if len(ns) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-22s n=%-8d p50=%9.2fus p90=%9.2fus p99=%9.2fus\n", name, len(ns),
		quantile(ns, 0.5)/1e3, quantile(ns, 0.9)/1e3, quantile(ns, 0.99)/1e3)
}

// meanNS returns the mean of a list of durations in ns.
func meanNS(total time.Duration, count int) float64 {
	if count == 0 {
		return math.NaN()
	}
	return float64(total.Nanoseconds()) / float64(count)
}
