package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"github.com/eurosys23/ice/internal/service"
)

// defaultSeed and heldOutSeed are the seeds whose result digests are
// pinned in pins.json. The held-out seed was not used while the
// benchmark was tuned. Any other seed derives its reference in the run
// from an independent path (a serial pass; a single-node daemon), which
// proves determinism but cannot notice a change of the simulated bytes
// themselves: only a pinned seed can.
const (
	defaultSeed = 20230509
	heldOutSeed = 7
)

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → seed → digest.
var pins = func() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("pins.json: " + err.Error()) // embedded at build time
	}
	return p
}()

// pinnedDigest returns the pinned digest of a workload at seed.
func pinnedDigest(workload string, seed int64) (string, bool) {
	d, ok := pins[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// poolPin is the digest pinned for a seed: the bytes of every warmed
// pool entry plus the first cold references, which a run at that seed
// always reaches.
func poolPin(pools [numClasses][]string, coldRefs []string) string {
	h := sha256.New()
	for c := classMem; c < numClasses; c++ {
		for _, d := range pools[c] {
			h.Write([]byte(d))
		}
	}
	for _, d := range coldRefs[:min(len(coldRefs), pinnedColdJobs)] {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedColdJobs is how many leading cold specs the pin covers.
const pinnedColdJobs = 8

// referencePin derives a seed's pin from the reference paths alone: a
// serial pass for matrix; for the daemon, single-node runs
// of every warmed pool entry and the leading cold specs.
func referencePin(workload string, seed int64) (string, error) {
	if workload == "matrix" {
		p, err := matrixWorkload.reference(seed)
		return p.digest, err
	}
	var specs []service.JobSpec
	counts := [numClasses]int{classMem: memPool, classDisk: diskPool, classPeer: peerPool, classCold: pinnedColdJobs}
	for c := 0; c < numClasses; c++ {
		specs = append(specs, daemonSpecs(seed, c, counts[c])...)
	}
	refs, err := referenceDigests(context.Background(), specs)
	if err != nil {
		return "", err
	}
	var pools [numClasses][]string
	var cold []string
	for c := 0; c < numClasses; c++ {
		if c == classCold {
			cold, refs = refs[:counts[c]], refs[counts[c]:]
		} else {
			pools[c], refs = refs[:counts[c]], refs[counts[c]:]
		}
	}
	return poolPin(pools, cold), nil
}
