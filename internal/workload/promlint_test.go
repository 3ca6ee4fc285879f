package workload

import (
	"bytes"
	"regexp"
	"testing"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
)

// instrumentName is the registry-wide naming contract: lowercase
// dotted identifiers only, so every instrument sanitises to a legal
// Prometheus series name by the dot→underscore rewrite alone.
var instrumentName = regexp.MustCompile(`^[a-z0-9_.]+$`)

// simPromRules mirrors the service layer's label-extraction rules for
// the sim-owned dynamic-suffix families.
var simPromRules = []obs.PromRule{
	{Prefix: "zram.stores.", Label: "codec"},
	{Prefix: "sched.quanta.", Label: "class"},
}

// TestScenarioRegistryPromClean runs a real scenario and holds every
// instrument the simulator registered to the exposition contract: names
// match the naming convention, the whole registry exports through
// PromFamilies (collision-free after sanitation, dynamic suffixes
// covered by rules), and the rendered exposition parses back.
func TestScenarioRegistryPromClean(t *testing.T) {
	sch, _ := policy.ByName("Ice")
	res := RunScenario(ScenarioConfig{
		Scenario: "S-A",
		Device:   device.P20,
		Scheme:   sch,
		BGCase:   BGApps,
		Duration: 30 * sim.Second,
		Seed:     7,
	})
	snap := res.Obs

	var names []string
	for _, s := range snap.Counters {
		names = append(names, s.Name)
	}
	for _, s := range snap.Gauges {
		names = append(names, s.Name)
	}
	for _, s := range snap.Hists {
		names = append(names, s.Name)
	}
	if len(names) == 0 {
		t.Fatal("scenario registered no instruments")
	}
	for _, name := range names {
		if !instrumentName.MatchString(name) {
			t.Errorf("instrument %q violates the naming convention %s", name, instrumentName)
		}
	}

	opts := obs.PromOptions{Rules: simPromRules}
	if _, err := obs.PromFamilies(snap, opts); err != nil {
		t.Fatalf("scenario registry fails prom lint: %v", err)
	}
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, snap, opts); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if _, err := obs.ParseProm(&buf); err != nil {
		t.Errorf("scenario exposition does not parse: %v", err)
	}
}
