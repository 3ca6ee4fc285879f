package main

import (
	"slices"
	"sync"
	"time"
)

// On the shared host this benchmark runs on, the speed of the cores it
// gets changes by a quarter within a minute with the other tenants' load,
// and the CPU time of the same cells changes with it (README.md, "Why CPU
// time, scaled"). So a run measures the host's current speed with a fixed
// load of the benchmark's own, which runs no code of the program, right
// before each measured sample, and reports the sample's CPU time scaled
// to a host that runs that load in calibrationRefMs. A change to the
// program moves the scaled figure as much as the raw one; a change of the
// host's speed moves the sample and its calibration alike, and cancels.

// calibrationRefMs is about the median calibration CPU time, in ms, on
// the machine the benchmark was built on (a 2-vCPU x86-64 virtual machine
// at 2.1 GHz), so scaled figures read close to raw ones there.
const calibrationRefMs = 100

var (
	// calibrationSink keeps the calibration's result alive, so the
	// compiler cannot drop the work.
	calibrationSink uint64
	// calibrationBufs are the slices the calibration sorts, one per
	// worker, allocated once so a calibration does not allocate.
	calibrationBufs [batchWorkers][1 << 14]uint64
)

// calibrate runs the calibration load once on each of the batch pool's
// workers at the same time, as the measured work does, and returns the
// process CPU time it took.
func calibrate() time.Duration {
	var wg sync.WaitGroup
	sums := make([]uint64, batchWorkers)
	start := cpuTime()
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = calibrationLoad(uint64(g)+1, calibrationBufs[g][:])
		}(g)
	}
	wg.Wait()
	took := cpuTime() - start
	for _, s := range sums {
		calibrationSink ^= s
	}
	return took
}

// calibrationLoad is branchy integer work plus sorts of a 128 KiB slice,
// which fits a core's private caches: no memory bandwidth, the same kind
// of work as the simulator's event loop and scheduler.
func calibrationLoad(x uint64, buf []uint64) uint64 {
	var s uint64
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			s += x
		} else {
			s ^= x >> 3
		}
	}
	for r := 0; r < 6; r++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = x
		}
		slices.Sort(buf)
		s += buf[len(buf)/2]
	}
	return s
}

// scaledMs scales a CPU time measured while the calibration took cal to
// a host that runs the calibration in calibrationRefMs.
func scaledMs(d, cal time.Duration) float64 {
	return ms(d) * calibrationRefMs / ms(cal)
}
