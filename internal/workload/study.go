package workload

import (
	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/sim"
)

// ReclaimStudyRow is one application's result in the §3.2 per-process
// reclaim study (Figure 4): launch the app, background it, reclaim all its
// pages via the per-process reclaim interface, and watch which pages
// refault within thirty seconds.
type ReclaimStudyRow struct {
	App       string
	Reclaimed int
	// Refaulted pages within the 30 s window, split by class.
	RefaultFile   uint64
	RefaultNative uint64
	RefaultJava   uint64
}

// RefaultTotal sums the refaulted classes.
func (r ReclaimStudyRow) RefaultTotal() uint64 {
	return r.RefaultFile + r.RefaultNative + r.RefaultJava
}

// RefaultRatio is refaulted/reclaimed.
func (r ReclaimStudyRow) RefaultRatio() float64 {
	if r.Reclaimed == 0 {
		return 0
	}
	return float64(r.RefaultTotal()) / float64(r.Reclaimed)
}

// RunReclaimStudy executes the study for each app in isolation (a fresh
// device per app, so refault attribution is exact). disableGC mimics the
// paper's "disabled idle runtime GC" variant.
func RunReclaimStudy(dev device.Profile, seed int64, apps []app.Spec, disableGC bool) []ReclaimStudyRow {
	if apps == nil {
		apps = app.Catalog40()
	}
	rows := make([]ReclaimStudyRow, 0, len(apps))
	for i, spec := range apps {
		if disableGC {
			spec.GCPeriod = 0
			spec.GCChurn = 0
		}
		rows = append(rows, runOneReclaimStudy(dev, seed+int64(i)*104729, spec))
	}
	return rows
}

func runOneReclaimStudy(dev device.Profile, seed int64, spec app.Spec) ReclaimStudyRow {
	sys := android.NewSystem(seed, dev)
	sys.AM.Install(spec)

	// Launch and use the app briefly, then switch it to the background.
	bringToForeground(sys, spec.Name)
	inst := sys.AM.App(spec.Name)
	inst.StartUsage()
	sys.Run(5 * sim.Second)
	inst.StopUsage()
	sys.AM.RequestHome()
	sys.Run(2 * sim.Second)

	// Reclaim all file-backed and anonymous pages of the application
	// (the per-process reclaim feature, [21]).
	sys.MM.ResetStats()
	var reclaimed int
	for _, p := range inst.Processes() {
		reclaimed += sys.MM.ReclaimProcess(p.PID)
	}

	// Detect refaults within thirty seconds.
	sys.Run(30 * sim.Second)
	st := sys.MM.Stats()
	sys.MM.Release()
	return ReclaimStudyRow{
		App:           spec.Name,
		Reclaimed:     reclaimed,
		RefaultFile:   st.RefaultByClass[mm.File],
		RefaultNative: st.RefaultByClass[mm.AnonNative],
		RefaultJava:   st.RefaultByClass[mm.AnonJava],
	}
}
