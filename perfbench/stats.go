package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the CPU time the process has used so far, user and system,
// summed over its threads (the garbage collector's included). Unlike wall
// time it leaves out time the host stole from the virtual machine's CPUs,
// which on a shared host can lengthen wall time by a quarter for minutes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the allocation and GC state at one instant.
type memSnap struct {
	bytes, objects uint64
	gcs            uint32
	gcCPU, allCPU  float64 // cumulative CPU seconds, from runtime/metrics
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readMem stops the world briefly; call it outside timed regions.
func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	s := memSnap{bytes: ms.TotalAlloc, objects: ms.Mallocs, gcs: ms.NumGC}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
		s.allCPU = cpuSamples[1].Value.Float64()
	}
	return s
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{bytes: a.bytes - b.bytes, objects: a.objects - b.objects, gcs: a.gcs - b.gcs,
		gcCPU: a.gcCPU - b.gcCPU, allCPU: a.allCPU - b.allCPU}
}

func (a memSnap) add(b memSnap) memSnap {
	return memSnap{bytes: a.bytes + b.bytes, objects: a.objects + b.objects, gcs: a.gcs + b.gcs,
		gcCPU: a.gcCPU + b.gcCPU, allCPU: a.allCPU + b.allCPU}
}

// rssSampler tracks the process's peak resident set size while the
// workload runs, polling /proc/self/statm. Where that file is missing it
// falls back to the memory the Go runtime holds from the OS.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	v := rssBytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peak = max(r.peak, v)
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	r.sample()
	return float64(r.peak) / (1 << 20)
}

var heldSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func rssBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	metrics.Read(heldSamples)
	return int64(heldSamples[0].Value.Uint64() - heldSamples[1].Value.Uint64())
}
