package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-th percentile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), q)]
}

// quartiles returns the nearest-rank 25th, 50th and 75th percentiles.
func quartiles(xs []float64) []float64 {
	return []float64{percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)}
}

// rank is the index of the nearest-rank q-th percentile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	return max(0, min(n-1, i))
}

// tail returns the highest whole percentile of xs that has at least ten
// samples beyond it, with its value and that count; ok is false when
// fewer than eleven samples exist.
func tail(xs []float64) (q int, v float64, beyond int, ok bool) {
	s := sorted(xs)
	for q = 99; q >= 1; q-- {
		i := rank(len(s), float64(q))
		if b := len(s) - 1 - i; b >= 10 {
			return q, s[i], b, true
		}
	}
	return 0, 0, 0, false
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// resetPeakRSS starts a new resident-set high-water mark for peakRSS, as
// far as the kernel allows; it reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the process's resident-set high-water mark in bytes,
// from /proc/self/status: the highest since the last resetPeakRSS, or
// since the process started.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// rssSampler reads the resident-set high-water mark once per interval
// and resets it after each reading, so that each reading is the peak of
// one interval.
type rssSampler struct {
	peaks []float64
	reset bool
	err   error
	stop  chan struct{}
	done  chan struct{}
}

// sampleRSS starts an rssSampler reading every interval.
func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{reset: resetPeakRSS(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			v, err := peakRSS()
			if err != nil {
				s.err = err
				return
			}
			s.peaks = append(s.peaks, v)
			s.reset = resetPeakRSS() && s.reset
		}
	}()
	return s
}

// finish stops the sampler, waits for it, takes the last, partial
// interval's reading, and returns the readings and whether every reset
// took.
func (s *rssSampler) finish() (peaks []float64, reset bool, err error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return nil, false, s.err
	}
	v, err := peakRSS()
	return append(s.peaks, v), s.reset, err
}
