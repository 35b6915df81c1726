package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile picks the highest of p99.9, p99 and p90 that still has at
// least ten samples beyond it in n samples; 0 means none does, and only
// the median is reported.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// failedPct is failures as a percentage of attempted operations.
func failedPct(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 100
	}
	return 100 * float64(failed) / float64(attempted)
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapBytes forces a collection and returns the live heap. A pass
// reports the difference between its end and its start, which leaves out
// the recording's arena and the benchmark's own bookkeeping.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settle waits, up to a second, for the goroutine count to fall back to
// base, so a finished pass's servers are gone before the next pass reads
// its starting heap.
func settle(base int) {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// heapGrowth is the live heap now over a liveHeapBytes reading taken
// before.
func heapGrowth(before uint64) uint64 {
	if now := liveHeapBytes(); now > before {
		return now - before
	}
	return 0
}

// rtSample is a runtime/metrics reading; the difference of two covers a
// timed phase.
type rtSample struct {
	allocBytes uint64
	gcCPU      float64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return r
}

// rtDelta is the runtime's view of one timed phase. GCCPU is the
// runtime's estimate of CPU seconds spent in the collector.
type rtDelta struct {
	AllocBytes  uint64
	GCCPU       float64
	SchedCounts []uint64
	SchedBounds []float64
}

func runtimeDelta(a, b rtSample) rtDelta {
	d := rtDelta{AllocBytes: b.allocBytes - a.allocBytes, GCCPU: b.gcCPU - a.gcCPU}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.SchedBounds = b.sched.Buckets
		d.SchedCounts = make([]uint64, len(b.sched.Counts))
		for i := range d.SchedCounts {
			d.SchedCounts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		}
	}
	return d
}

// add accumulates another phase into d.
func (d *rtDelta) add(o rtDelta) {
	d.AllocBytes += o.AllocBytes
	d.GCCPU += o.GCCPU
	if d.SchedCounts == nil {
		d.SchedBounds = o.SchedBounds
		d.SchedCounts = append([]uint64(nil), o.SchedCounts...)
		return
	}
	for i := range d.SchedCounts {
		if i < len(o.SchedCounts) {
			d.SchedCounts[i] += o.SchedCounts[i]
		}
	}
}

// histQuantile is the q-quantile of a runtime/metrics histogram,
// interpolated linearly inside the bucket it falls in.
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bounds[i], bounds[i+1]
			if lo < 0 || lo != lo {
				lo = 0
			}
			if hi > 1e300 {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// cpuStat is the host's /proc/stat cpu line: total and steal jiffies.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, v := range fields[1:] {
			n, _ := strconv.ParseUint(v, 10, 64)
			// guest and guest_nice are already inside user and nice.
			if i < 8 {
				st.total += n
			}
			if i == 7 {
				st.steal = n
			}
		}
		return st
	}
	return cpuStat{}
}

// clock times a phase in wall time and in unstolen time: the wall time
// less the share of the host's CPU time the hypervisor stole over the
// phase (/proc/stat). A contended host stretches wall time but not
// unstolen time, so runs on a busy and a quiet host compare.
type clock struct {
	t0   time.Time
	cpu0 cpuStat
}

func startClock() clock { return clock{t0: time.Now(), cpu0: readCPUStat()} }

// stop returns the wall and unstolen time since startClock.
func (c clock) stop() (wall, unstolen time.Duration) {
	wall = time.Since(c.t0)
	steal := stealPct(c.cpu0, readCPUStat()) / 100
	return wall, time.Duration(float64(wall) * (1 - steal))
}

// stealPct is the host CPU share stolen by the hypervisor between a and b.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
