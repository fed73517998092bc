package main

import (
	"slices"
	"time"
)

// minBeyond is the number of samples the reported tail percentile must
// leave above it, so the tail is never a single outlier.
const minBeyond = 10

// tailLadder lists the percentiles op_tail_ms may report, in parts per
// 100,000: p50, p90, p99, p99.9, p99.99, p99.999.
var tailLadder = []int{50_000, 90_000, 99_000, 99_900, 99_990, 99_999}

// rank returns the nearest-rank index (0-based) of the percentile given in
// parts per 100,000 among n sorted samples.
func rank(pcm, n int) int {
	r := (pcm*n + 99_999) / 100_000 // ceil(pcm/100000 * n)
	return max(r-1, 0)
}

// tail picks the highest ladder percentile that leaves at least minBeyond
// samples above it and returns that percentile, its value and the number
// of samples beyond it. Below 2×minBeyond samples no percentile qualifies
// and the median is returned. sorted must be ascending and non-empty.
func tail(sorted []time.Duration) (pct float64, v time.Duration, beyond int) {
	n := len(sorted)
	pick := tailLadder[0]
	for _, pcm := range tailLadder {
		if n-(rank(pcm, n)+1) >= minBeyond {
			pick = pcm
		}
	}
	r := rank(pick, n)
	return float64(pick) / 1000, sorted[r], n - (r + 1)
}

// percentile returns the nearest-rank percentile (parts per 100,000) of an
// ascending, non-empty sample.
func percentile(sorted []time.Duration, pcm int) time.Duration {
	return sorted[rank(pcm, len(sorted))]
}

// median returns the nearest-rank median of d, leaving d unchanged; zero
// for an empty sample.
func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return percentile(s, 50_000)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
