package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// pct returns the q-quantile of ds by nearest rank; 0 for no samples.
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timed is one answered operation: when it completed, counted from
// the start of its load phase, how long it took, and how many queries
// it answered.
type timed struct {
	at, lat time.Duration
	n       int
}

// Percentiles and rates are medians over equal windows of the load
// phase, so a stall of the shared machine shorter than half the phase
// moves some windows' figures and not the reported one. A window for
// the q-quantile holds at least minBeyond/(1-q) samples, leaving at
// least minBeyond beyond it; there are at most maxWindows.
const (
	maxWindows = 10
	minBeyond  = 10
)

// windows cuts dur into n equal windows and groups ts by the window its
// completion falls in; late completions join the last window.
func windows(ts []timed, dur time.Duration, n int) [][]timed {
	out := make([][]timed, n)
	for _, t := range ts {
		i := min(max(int(int64(t.at)*int64(n)/int64(dur)), 0), n-1)
		out[i] = append(out[i], t)
	}
	return out
}

// windowPct returns the median over the phase's windows of each
// window's q-quantile latency.
func windowPct(ts []timed, dur time.Duration, q float64) time.Duration {
	n := min(max(int(float64(len(ts))*(1-q)/minBeyond), 1), maxWindows)
	var per []float64
	for _, w := range windows(ts, dur, n) {
		lat := make([]time.Duration, len(w))
		for i, t := range w {
			lat[i] = t.lat
		}
		per = append(per, float64(pct(lat, q)))
	}
	return time.Duration(median(per))
}

// windowRate returns the median over maxWindows equal windows of the
// queries answered per second.
func windowRate(ts []timed, dur time.Duration) float64 {
	var per []float64
	for _, w := range windows(ts, dur, maxWindows) {
		n := 0
		for _, t := range w {
			n += t.n
		}
		per = append(per, float64(n)/(dur.Seconds()/maxWindows))
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies collects durations from several goroutines.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) snapshot() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.ds...)
}

// heapBytes returns the live Go heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// setupRuns is how many times a workload sets up; setup_s is the
// median. The remote and gateway set-ups take about a second, so host
// noise moves each by a large share and five are taken. The local
// set-up takes about four seconds, noise moves it by less, and three
// keep a run's set-up near the length of its load phase.
const (
	setupRuns      = 5
	localSetupRuns = 3
)

// setups times n set-ups of the system under test and returns their
// median. The first set-up's result is kept and its heap growth over
// the pre-set-up baseline reported as heapMB; the later ones are torn
// down at once. build returns the set-up's teardown.
func setups(n int, build func(first bool) (teardown func(), err error)) (setup time.Duration, heapMB float64, err error) {
	base := heapBytes()
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		teardown, err := build(i == 0)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			heapMB = float64(int64(heapBytes())-int64(base)) / 1e6
			continue
		}
		teardown()
	}
	return time.Duration(median(times) * float64(time.Second)), heapMB, nil
}

// allocsPer runs f(0..n-1) alone after two warm-up passes over the
// same calls and returns the mallocs and bytes allocated per call, the
// accounting testing's ReportAllocs uses. Like testing.AllocsPerRun it
// runs on one P, so per-P pools hand back the buffers the warm-up grew,
// and the second pass outlives any collection the first one triggered.
func allocsPer(n int, f func(i int)) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	// A collection would empty those pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// procIO reads the process's write byte and write syscall counters
// from /proc/self/io.
func procIO() (wchar, syscw int64, err error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, perr := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if perr != nil {
			continue
		}
		switch k {
		case "wchar":
			wchar = n
		case "syscw":
			syscw = n
		}
	}
	return wchar, syscw, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// parallel runs f(0..n-1) on at most GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
