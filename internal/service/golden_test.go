package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/eurosys23/ice/internal/harness"
)

// hashHex is the hex SHA-256 of b ("" for an absent payload).
func hashHex(b []byte) string {
	if b == nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunPayloadGolden pins a run job's stored bytes: the cache key of
// the normalised spec and the SHA-256 of execute's result and trace
// payloads, for ci.sh's smoke spec and its traced sharding spec. The
// ci.sh cmp legs compare payloads only within one build; these hashes
// hold across builds, so a refactor of the run path that moves a byte
// of a stored or served payload fails here.
func TestRunPayloadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seven rounds")
	}
	for _, tc := range []struct {
		spec, key, result, trace string
	}{
		{
			spec:   `{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":1,"seed":11}`,
			key:    "5de79526c7b1aecbfc17ceb166efecd412956bd3f576e0df34d5329ffc100f0f",
			result: "d21293d2af7fd0fa24db888078d2ad60dcc92c6776e680b642441ee5b09ca200",
		},
		{
			spec:   `{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":6,"seed":23,"trace":true}`,
			key:    "6c2e1d18ce7971b9adf6a6051ccaf90de59a1708e2703fc50fa6eb36a4c10b2b",
			result: "db89938b9d4657abaa72358dd334db445c412158f64dbccc8d3685b003f4017a",
			trace:  "803b33dfa3c9ef4ea8b7cc510d722daa169618b5f56a2cd8a2f67386cba1a2a1",
		},
	} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		if got := CacheKey(spec, "golden"); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.spec, got, tc.key)
		}
		result, traceJSON, err := execute(context.Background(), spec, nil, nil, harness.ExecHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if got := hashHex(result); got != tc.result {
			t.Errorf("%s: result %s, want %s", tc.spec, got, tc.result)
		}
		if got := hashHex(traceJSON); got != tc.trace {
			t.Errorf("%s: trace %s, want %s", tc.spec, got, tc.trace)
		}
	}
}

// TestExperimentKeyGolden pins the cache keys of experiment jobs whose
// rounds, seed and duration are left to the experiment defaults: the
// normalised spec hashes the effective values, so a change to where
// those defaults come from must not move a key. fig4 reads neither
// duration nor rounds, so a spec that sets them keys as the plain one.
func TestExperimentKeyGolden(t *testing.T) {
	for _, tc := range []struct{ spec, key string }{
		{`{"kind":"experiment","experiment":"table1","fast":true}`, "31f635f41dc8841117cbbde3e06f0cee54fca6ff241e43ead8a678b4ac9dd644"},
		{`{"kind":"experiment","experiment":"fig8"}`, "a02c26dc1309946c71302ba679087ca66475858e2bbf89b489fc8997907063f2"},
		{`{"kind":"experiment","experiment":"fig4","fast":true,"duration_sec":5,"rounds":-3}`, "af4096e394fff8b1e216c8685cc7cad3301b1ccdc016f1103063197f8a48c294"},
		{`{"kind":"experiment","experiment":"fig4","fast":true}`, "af4096e394fff8b1e216c8685cc7cad3301b1ccdc016f1103063197f8a48c294"},
	} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		if got := CacheKey(spec, "golden"); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.spec, got, tc.key)
		}
	}
}
