package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark carries its own percentile code on purpose: the
// repository's three histogram implementations are due to be collapsed,
// and the instrument must not move when they do.

// percentile returns the p-th percentile (0 < p < 1) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// samplesBeyond is how many of n samples lie beyond the p-th percentile.
// A percentile is reported with confidence only when at least ten do.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9))
}

// tailNote flags a percentile that has fewer than ten samples beyond it.
func tailNote(n int, p float64) string {
	if b := samplesBeyond(n, p); b < 10 {
		return fmt.Sprintf(" (thin tail: %d beyond)", b)
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = float64(1 << 20)

// schedule returns n due instants spacing apart, the first at start.
func schedule(start time.Time, spacing time.Duration, n int) []time.Time {
	due := make([]time.Time, n)
	for i := range due {
		due[i] = start.Add(time.Duration(i) * spacing)
	}
	return due
}

// lateness is how long after its due instant each operation was issued,
// in ms; an early or on-time operation counts 0.
func lateness(due, actual []time.Time) []float64 {
	late := make([]float64, len(due))
	for i := range due {
		if d := actual[i].Sub(due[i]); d > 0 {
			late[i] = ms(d)
		}
	}
	return late
}

// backlogRatio is the last-quartile ÷ first-quartile median of an
// open-loop latency series in issue order: near 1 when the system keeps
// up, growing when a queue builds.
func backlogRatio(inOrder []float64) float64 {
	q := len(inOrder) / 4
	if q == 0 {
		return 1
	}
	first := median(inOrder[:q])
	if first <= 0 {
		return 1
	}
	return median(inOrder[len(inOrder)-q:]) / first
}

// interval is a closed time window.
type interval struct{ start, end time.Time }

// unionDuration is the total time covered by at least one interval.
func unionDuration(ivs []interval) time.Duration {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end.After(iv.start) {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range s {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(s) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return parent.end.Sub(parent.start) - unionDuration(clipped)
}

// procCPU is the user+system CPU seconds a process has used, from
// /proc/<pid>/stat (USER_HZ is 100 on every Linux ABI).
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after the
	// closing parenthesis.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// selfCPU is this process's user+system CPU seconds, at rusage's
// microsecond resolution.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is a process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func freeBytes(dir string) (int64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, err
	}
	return int64(st.Bavail) * st.Bsize, nil
}

func syncFS() { syscall.Sync() }
