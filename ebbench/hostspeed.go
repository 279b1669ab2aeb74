package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// paper-partition's timings and every workload's cpu_ms_per_op are
// taken on CPU clocks and scaled by the host's speed, because the
// shared host the benchmark runs on has two kinds of noise. Neighbours
// take CPU time from the process: wall-clock figures then drop by up
// to 40%, while CPU time barely moves. And neighbours slow the CPU time
// itself through shared caches and memory, by 10-25% in busy spells. A
// fixed reference kernel, run on the same cores, sees the second kind
// of slowdown too. CPU times are scaled by the kernel's nominal time
// over its median time in the same stretch: per pass on
// paper-partition, whose workers run the kernel between designs, and
// over the timed phase elsewhere, where a meter goroutine runs it every
// refPeriod. Under an induced memory-streaming neighbour,
// paper-partition's raw CPU throughput moved up to 8% and the scaled
// one at most 2%.

// Clock IDs of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling OS thread; the goroutine
// must be locked to its thread (runtime.LockOSThread) for it to mean
// the goroutine's own time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time of all the process's threads, the
// runtime's garbage collector included.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// refNominal is the reference kernel's CPU time on a quiet host (2-vCPU
// KVM guest, Intel Xeon), so scaled times read close to that host's.
const refNominal = 1200 * time.Microsecond

// refEvery is how many designs a paper-partition worker partitions
// between two kernel samples, and refPeriod how long the meter of the
// other workloads sleeps between two.
const (
	refEvery  = 50
	refPeriod = 100 * time.Millisecond
)

// refKeys is the kernel's fixed input: a permutation of 4096 keys.
var refKeys = func() []uint32 {
	p := make([]uint32, 4096)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(p) - 1; i > 0; i-- { // Sattolo's shuffle on xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}()

// refKernel is one worker's copy of the reference kernel's state. The
// kernel does what partitioning does most, map updates and sorting, on
// memory it allocated once, so it neither allocates nor depends on the
// code under test.
type refKernel struct {
	m    map[uint32]uint32
	buf  []uint32
	sink uint32
	// samples are the kernel's CPU times since the last take.
	samples []time.Duration
}

func newRefKernel() *refKernel {
	return &refKernel{m: make(map[uint32]uint32, len(refKeys)), buf: make([]uint32, len(refKeys))}
}

// sample runs the kernel once on the calling (locked) thread and
// records its CPU time.
func (k *refKernel) sample() {
	c0 := threadCPU()
	for r := 0; r < 3; r++ {
		clear(k.m)
		for _, key := range refKeys {
			k.m[key^k.sink&7] += key
		}
		copy(k.buf, refKeys)
		slices.Sort(k.buf)
		k.sink += k.buf[100] + k.m[refKeys[7]]
	}
	k.samples = append(k.samples, threadCPU()-c0)
}

// hostFactor turns the samples of several kernels into the factor a
// pass's CPU times are scaled by (nominal / median sample; 1 without
// samples) and the kernels' total CPU time, which the caller takes out
// of the pass. It resets the samples.
func hostFactor(ks []*refKernel) (factor float64, spent time.Duration) {
	var all []time.Duration
	for _, k := range ks {
		all = append(all, k.samples...)
		k.samples = k.samples[:0]
	}
	for _, d := range all {
		spent += d
	}
	if len(all) == 0 {
		return 1, 0
	}
	return float64(refNominal) / float64(medianDuration(all)), spent
}

// scaleCPU scales a CPU time by a host factor.
func scaleCPU(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) * factor)
}

// hostMeter samples the reference kernel on a goroutine of its own,
// locked to its thread, while a workload's timed phase runs.
type hostMeter struct {
	k    *refKernel
	stop chan struct{}
	done chan struct{}
}

func startHostMeter() *hostMeter {
	m := &hostMeter{k: newRefKernel(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(refPeriod)
		defer t.Stop()
		for {
			m.k.sample()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// end stops the meter, waits for it, and returns hostFactor over its
// samples.
func (m *hostMeter) end() (factor float64, spent time.Duration) {
	close(m.stop)
	<-m.done
	return hostFactor([]*refKernel{m.k})
}
