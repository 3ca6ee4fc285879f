package workload

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/sim"
)

// CPUStudyResult is one Table-1 measurement: CPU utilisation with N apps
// cached in the background and no foreground app.
type CPUStudyResult struct {
	NumBG   int
	Average float64
	Peak    float64
}

// RunCPUStudy reproduces Table 1: cache N randomly selected apps, let them
// sit in the background for the observation window with no foreground
// app, and record average and peak CPU utilisation. rounds independent
// repetitions are averaged, re-selecting the background population each
// round as the paper does.
func RunCPUStudy(dev device.Profile, numBG int, rounds int, window sim.Time, seed int64) CPUStudyResult {
	if rounds <= 0 {
		rounds = 10
	}
	if window <= 0 {
		window = 10 * sim.Second
	}
	var avgSum, peakSum float64
	for r := 0; r < rounds; r++ {
		roundSeed := seed + int64(r)*6151
		sys, _ := NewScenarioSystem(ScenarioConfig{
			Scenario: "S-A", // irrelevant: no FG app runs
			Device:   dev,
			BGCase:   BGNull,
			Seed:     roundSeed,
		})
		rng := sim.NewRand(roundSeed ^ 0xcb0)
		if numBG > 0 {
			CacheApps(sys, PickBGApps(rng, numBG, ""), 500*sim.Millisecond)
		}
		sys.AM.RequestHome()
		sys.Run(2 * sim.Second) // settle
		sys.ResetMeasurement()
		sys.Run(window)
		st := sys.Sched.Stats()
		avgSum += st.Utilization()
		peakSum += st.PeakUtilization()
		sys.MM.Release()
	}
	return CPUStudyResult{
		NumBG:   numBG,
		Average: avgSum / float64(rounds),
		Peak:    peakSum / float64(rounds),
	}
}

// DefaultCPUStudyDevice is the device Table 1 is measured on.
var DefaultCPUStudyDevice = device.P20
