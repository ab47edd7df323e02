package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// epoch anchors every wall-clock reading of a run: stamps in payloads,
// window boundaries and span times are nanoseconds since it, read off
// the monotonic clock.
var epoch = time.Now()

// nowNs returns nanoseconds since the run's epoch.
func nowNs() int64 { return int64(time.Since(epoch)) }

// sleepUntil parks the caller until the epoch-relative instant t; a
// caller that is already late returns at once, so an open-loop schedule
// catches up instead of drifting.
func sleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCPU is the machine's processor accounting at one instant, in clock
// ticks summed over its processors: busy is every state but idle and I/O
// wait; stolen is the part of busy in which a processor of this guest was
// runnable and the hypervisor ran another guest.
type hostCPU struct{ busy, stolen int64 }

// readHostCPU reads the first line of /proc/stat; where there is none, or
// the kernel reports no steal column, it returns zeros and every
// sub-window counts as calm.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, col := range f[1:9] {
		v, _ := strconv.ParseInt(string(col), 10, 64)
		if i != 3 && i != 4 { // idle, iowait
			h.busy += v
		}
		if i == 7 {
			h.stolen = v
		}
	}
	return h
}

const (
	// windowLen is the length the measured span's sub-windows are cut to,
	// and minWindows the least number of them behind any reading.
	windowLen  = 250 * time.Millisecond
	minWindows = 10
	// calmSteal is the share of a sub-window's busy processor time the
	// hypervisor may have withheld for the window still to count as calm.
	// On the sizing box (2 vCPUs of a shared host) the share is 0 in most
	// 250 ms windows and 20-65% for seconds at a time when a neighbour
	// runs; a run whose median window falls into such a burst reads
	// 20-30% slower than the same code a minute later.
	calmSteal = 0.05
)

// windowsFor is how many sub-windows a measured span of the given length
// is cut into.
func windowsFor(seconds float64) int {
	n := int(seconds * float64(time.Second) / float64(windowLen))
	if n < minWindows {
		n = minWindows
	}
	return n
}

// stolenShare is the share of the busy processor time between two
// readings that the hypervisor withheld.
func stolenShare(a, b hostCPU) float64 {
	return ratio(float64(b.stolen-a.stolen), float64(b.busy-a.busy))
}

// calmWindows marks, from each sub-window's stolen share, the sub-windows
// in which the host left the guest alone. Every wall-clock reading is the
// median over the calm sub-windows: the host's interference is not the
// program's behaviour, and the kernel says which windows had it. When
// fewer than minWindows are calm the run keeps them all — a median over
// fewer would not be one — and host.calm_window_share shows it.
func calmWindows(stolen []float64) (calm []bool, share float64) {
	calm = make([]bool, len(stolen))
	n := 0
	for k, s := range stolen {
		if calm[k] = s <= calmSteal; calm[k] {
			n++
		}
	}
	if n < minWindows {
		for k := range calm {
			calm[k] = true
		}
	}
	return calm, ratio(float64(n), float64(len(stolen)))
}

// medianWhere is the median of the values whose sub-window is kept (keep
// nil keeps all) and that are defined (not NaN: a window with nothing to
// divide by has no reading).
func medianWhere(vs []float64, keep []bool) float64 {
	kept := make([]float64, 0, len(vs))
	for k, v := range vs {
		if (keep == nil || keep[k]) && !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	return median(kept)
}

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between closest ranks; vs is sorted in place. Empty input yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if len(vs) == 1 {
		return vs[0]
	}
	pos := p * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

// percentileOrNaN is percentile with "no reading" for an empty window.
func percentileOrNaN(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	return percentile(vs, p)
}

// median returns the median of vs (sorted in place).
func median(vs []float64) float64 { return percentile(vs, 0.5) }

// windowedPercentile is how every latency metric is reduced: the
// p-quantile is taken inside each sub-window and the metric is the median
// of those over the kept windows, so one stalled window cannot move it.
// Empty windows are skipped.
func windowedPercentile(windows [][]float64, p float64, keep []bool) float64 {
	per := make([]float64, len(windows))
	for k, w := range windows {
		per[k] = percentileOrNaN(w, p)
	}
	return medianWhere(per, keep)
}

// windowIndex maps an epoch-relative instant onto one of n equal
// sub-windows of length winNs starting at start; ok is false outside the
// measured span.
func windowIndex(t, start, winNs int64, n int) (int, bool) {
	if t < start || winNs <= 0 {
		return 0, false
	}
	i := int((t - start) / winNs)
	if i >= n {
		return 0, false
	}
	return i, true
}

// tickDue returns the due time of tick k of an open-loop schedule that
// starts at start: every submit of the tick is timed from this instant,
// not from when the generator got round to it.
func tickDue(start int64, k int, tick time.Duration) int64 {
	return start + int64(k)*int64(tick)
}

// perTick spreads rate msgs/s over 1 ms ticks.
func perTick(rate int, tick time.Duration) int {
	n := int(int64(rate) * int64(tick) / int64(time.Second))
	if n < 1 {
		n = 1
	}
	return n
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles computed as Python's statistics.quantiles(n=4) does
// (exclusive method). Fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}
