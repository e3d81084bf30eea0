package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The benchmark runs on shared hosts whose speed for one and the same
// code drifts by up to 1.6x over seconds to minutes as other tenants
// come and go: far more than the changes the benchmark must resolve.
// So every timing is scaled to a reference speed. A fixed kernel, which
// no change outside this directory can alter, is timed right before and
// right after each timed part, and the part's times are multiplied by
// refNominal over the kernel's mean time. The kernel is a small cache
// simulator, so a slow spell of the host slows it about as much as it
// slows the simulator.

// refNominal is the kernel's time on an idle 2-core VM of the kind the
// benchmark was defined on: scaled timings read as if taken there.
const refNominal = 38 * time.Millisecond

// kernel is the reference kernel's input: a fixed stream of 1M
// instruction and data addresses, and three set-associative tag arrays
// it runs through with LRU replacement.
type kernel struct {
	stream []uint64
	levels [3][]uint64
}

// kernelWays are the tag arrays' associativities.
var kernelWays = [3]int{8, 8, 16}

// kernelMisses keeps the kernel's work from being optimized away.
var kernelMisses uint64

func newKernel() kernel {
	k := kernel{stream: make([]uint64, 1<<20)}
	x, pc := uint64(88172645463325252), uint64(0x400000)
	for i := range k.stream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x % 8 {
		case 0: // a taken branch
			pc = 0x400000 + (x>>8)%(1<<22)
		case 1: // a data access
			k.stream[i] = (x >> 3) % (1 << 28)
			continue
		default:
			pc += 4
		}
		k.stream[i] = pc
	}
	for l, sets := range [3]int{64, 1024, 4096} {
		k.levels[l] = make([]uint64, sets*kernelWays[l])
	}
	return k
}

// run streams the addresses through the tag arrays and counts misses.
func (k kernel) run() uint64 {
	var misses uint64
	for _, a := range k.stream {
		line := a>>6 + 1 // 0 marks an empty way
		for l, tags := range k.levels {
			w := kernelWays[l]
			set := int((line * 0x9E3779B97F4A7C15 >> 40) % uint64(len(tags)/w))
			row := tags[set*w : set*w+w]
			j := slices.Index(row, line)
			missed := j < 0
			if missed {
				misses++
				j = w - 1 // evict the least recently used way
			}
			copy(row[1:j+1], row[:j])
			row[0] = line
			if !missed {
				break // a hit ends the walk down the levels
			}
		}
	}
	return misses
}

// probe times the kernel once the process is otherwise idle. The
// kernel's input is built afresh each time and collected before probe
// returns, so it takes no part in the workloads' heap. probe fails when
// another thread of the process ran beside the kernel: that would slow
// the kernel, and scaling by it would hide the same slowdown in the
// timings around it.
func probe() (time.Duration, error) {
	runtime.GC()
	d, cpu, err := timeKernel()
	runtime.GC()
	if err != nil {
		return 0, err
	}
	if cpu > d*8/5 {
		return 0, fmt.Errorf("the process used %v of CPU during a %v reference kernel: something else in it was running", cpu, d)
	}
	return d, nil
}

// timeKernel runs the kernel on fresh input and returns its wall time
// and the CPU time the whole process used meanwhile.
func timeKernel() (wall, cpu time.Duration, err error) {
	k := newKernel()
	c0, err := cpuTime()
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	kernelMisses = k.run()
	wall = time.Since(t)
	c1, err := cpuTime()
	return wall, c1 - c0, err
}

// cpuTime is the CPU time the process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading the process's CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// speedScale is the factor that brings a time taken between two probes
// to reference speed.
func speedScale(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}
