package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the user and system CPU time the process has used so far,
// over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap (bytes in allocated objects) and keeps
// the highest reading since the last reset.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// reset returns the peak since the previous reset in MB and starts over.
func (h *heapSampler) reset() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for its goroutine.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// settle collects garbage so that one phase's heap does not leak into the
// next phase's peak.
func settle() {
	runtime.GC()
	runtime.GC()
}
