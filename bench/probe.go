package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host is shared: for seconds or minutes at a time its other tenants
// slow this VM's memory system, and everything the server does takes up
// to twice as long (README, "Host speed"). No statistic over one run
// removes that, so the harness measures it. A prober runs a fixed piece
// of cache-bound work ten times a second for as long as the process
// lives and records the CPU time it took; a timing that covers an
// interval is divided by that interval's slowdown, the probe's mean time
// over hostRefNs raised to hostExponent. The gated timings therefore read
// "on a host that runs the probe in hostRefNs", whichever minutes the run
// fell into.

const (
	// probeWords is a 256 KiB table: it fits the core's L2 cache, and
	// is back in the shared cache whenever the load or a neighbour ran
	// in between, so reading it costs what a cache refill costs just
	// then. probeKeys is a Go map of 65 536 entries, about 2 MB: bucket
	// walks that miss L2 and sometimes the shared cache. Of the kernels
	// tried, these two together followed the server's CPU per statement
	// best on all three gated workloads (README).
	probeWords = 32 << 10
	probeReads = 100_000 // rounds of four independent table reads
	probeKeys  = 1 << 16
	probeGets  = 20_000
	// hostRefNs is the probe's CPU time on this class of host (2 vCPUs
	// of a Xeon at 2.1 GHz) when the neighbours are quiet and one of
	// the gated workloads is running.
	hostRefNs = 1_700_000
	// hostExponent: the server loses more to a contended memory system
	// than the probe does. Over the recorded bad stretches, when the
	// probe took 1.4 to 2.3 times as long, the server's time per
	// statement grew as the probe's time to the power 1.2 to 1.5 on
	// point_adhoc, 1.0 to 1.6 on mixed_rw and 0.9 to 1.0 on
	// analytic_scan; one exponent for all three halves what a bad hour
	// leaves in the first two and costs the third two per cent (README).
	hostExponent  = 1.25
	probeInterval = 100 * time.Millisecond
)

type probeSample struct {
	at time.Time
	ns float64
}

// prober owns the probing goroutine; stop returns once it has exited.
type prober struct {
	mu      sync.Mutex
	samples []probeSample
	quit    chan struct{}
	done    chan struct{}
}

func startProber() *prober {
	p := &prober{quit: make(chan struct{}), done: make(chan struct{})}
	table := make([]uint64, probeWords)
	x := uint64(88172645463325252)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	keys := make(map[uint64]uint64, probeKeys)
	for i := uint64(0); i < probeKeys; i++ {
		keys[i*2654435761] = i
	}
	go func() {
		defer close(p.done)
		// The CPU clock read below is the thread's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		var sink uint64
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			t0 := threadCPUNs()
			sink += probeKernel(table, keys)
			ns := float64(threadCPUNs() - t0)
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{time.Now(), ns})
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *prober) stop() {
	close(p.quit)
	<-p.done
}

// slowdown is the host's slowdown over [from, to]: the mean probe time
// of the samples taken then, over hostRefNs, to the power hostExponent.
// An interval too short to hold a sample takes the nearest one.
func (p *prober) slowdown(from, to time.Time) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return 1 // nothing was probed yet: the timing stays as measured
	}
	sum, n := 0.0, 0
	nearest, gap := p.samples[0], time.Duration(1<<62)
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.ns
			n++
		}
		if d := s.at.Sub(from).Abs(); d < gap {
			nearest, gap = s, d
		}
	}
	mean := nearest.ns
	if n > 0 {
		mean = sum / float64(n)
	}
	return math.Pow(mean/hostRefNs, hostExponent)
}

// probeKernel makes probeReads rounds of four independent dependent-read
// chains through table, at addresses the hardware cannot predict, and
// probeGets lookups in keys.
func probeKernel(table []uint64, keys map[uint64]uint64) uint64 {
	m := uint64(len(table) - 1)
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := uint64(0); i < probeReads; i++ {
		a = table[(a+i)&m]
		b = table[(b+i*3)&m]
		c = table[(c+i*5)&m]
		d = table[(d+i*7)&m]
	}
	for i := uint64(0); i < probeGets; i++ {
		a += keys[(i&(probeKeys-1))*2654435761]
	}
	return a + b + c + d
}

// threadCPUNs is CLOCK_THREAD_CPUTIME_ID: the CPU time of the calling
// thread, which stands still while the thread waits for a core.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// The call cannot fail with a valid clock id and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
