package policy

import (
	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/predict"
	"github.com/eurosys23/ice/internal/sim"
)

var swamInfo = Info{
	Name: "SWAM",
	Desc: "swap/OOMK collaboration: efficiency-scored victims, proactive kill on swap exhaustion (arXiv:2306.08345)",
	Axes: []string{"KillCooldown", "SpareNextP"},
	New:  func() Scheme { return &SWAM{} },
}

// SWAM (Lim et al., arXiv:2306.08345) makes the OOM killer swap-aware.
// Two collaborations the stock stack lacks:
//
//   - Victim selection by memory efficiency: the stock LMK kills the
//     oldest cached app regardless of what the kill frees. SWAM scores
//     candidates by the total memory a kill returns — resident pages
//     *and* swap slots — discounted by how hot that memory is, so a big
//     cold app beats a small busy one. The app the usage predictor
//     expects next is spared.
//
//   - Proactive kills on swap exhaustion: when reclaim starts bouncing
//     off a full ZRAM partition (mm's swap-full seam), anonymous memory
//     can no longer be compressed away and the device is heading for
//     direct-reclaim stalls. SWAM kills one victim ahead of that wall
//     instead of waiting for allocation pressure to force the LMK's
//     hand, paced by KillCooldown.
type SWAM struct {
	// KillCooldown spaces proactive swap-full kills (default 2 s).
	KillCooldown sim.Time
	// SpareNextP is the prediction confidence at or above which the
	// likely-next app is exempt from victim selection (default 0.3).
	SpareNextP float64

	// SwapFullKills counts proactive kills triggered by the swap-full
	// seam (observability; LMK.Kills counts them too).
	SwapFullKills int

	sys      *android.System
	markov   *predict.Markov
	lastKill sim.Time
}

// Name implements Scheme.
func (*SWAM) Name() string { return "SWAM" }

// Attach implements Scheme.
func (s *SWAM) Attach(sys *android.System) {
	if s.KillCooldown <= 0 {
		s.KillCooldown = 2 * sim.Second
	}
	if s.SpareNextP <= 0 {
		s.SpareNextP = 0.3
	}
	s.sys = sys
	s.markov = predict.NewMarkov()
	s.lastKill = -s.KillCooldown
	sys.Hooks.FGChange = append(sys.Hooks.FGChange, func(_, cur *android.Instance) {
		if cur != nil {
			s.markov.Observe(cur.UID)
		}
	})
	sys.LMK.SetVictimFn(s.pickVictim)
	sys.MM.OnSwapFull(s.onSwapFull)
}

// onSwapFull is the proactive half: one paced kill per exhaustion burst.
func (s *SWAM) onSwapFull() {
	now := s.sys.Eng.Now()
	if now-s.lastKill < s.KillCooldown {
		return
	}
	s.lastKill = now
	if s.sys.LMK.RequestKill() != nil {
		s.SwapFullKills++
	}
}

// pickVictim scores each candidate by the memory its death frees,
// discounted by hotness, and spares the predicted next app when another
// candidate exists.
func (s *SWAM) pickVictim(cands []*android.Instance) *android.Instance {
	spare := -1
	if next, p, ok := s.markov.Predict(); ok && p >= s.SpareNextP {
		spare = next
	}
	var best *android.Instance
	var bestScore float64
	for _, in := range cands {
		if in.UID == spare && len(cands) > 1 {
			continue
		}
		if score := s.score(in); best == nil || score > bestScore {
			best, bestScore = in, score
		}
	}
	return best
}

// score is the candidate's memory efficiency as a kill target: resident
// pages free RAM, evicted pages free swap slots (the resource SWAM is
// collaborating over), and the average per-page heat discounts apps
// whose memory is still earning its keep.
func (s *SWAM) score(in *android.Instance) float64 {
	var resident, evicted, heat int
	for _, pr := range in.Processes() {
		resident += s.sys.MM.ResidentOf(pr.PID)
		evicted += s.sys.MM.EvictedOf(pr.PID)
		heat += s.sys.MM.HeatOf(pr.PID)
	}
	freed := float64(resident + evicted)
	avgHeat := 0.0
	if resident > 0 {
		avgHeat = float64(heat) / float64(resident)
	}
	return freed / (1 + avgHeat)
}
