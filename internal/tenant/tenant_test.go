package tenant

import (
	"bytes"
	"strings"
	"testing"
)

// validTokens is TestParseTokens' token file.
const validTokens = `
# comment line, then a blank line

s3cr3t-alice alice weight=4 max-cells=8 max-queued=16 cache-bytes=1048576
s3cr3t-bob   bob
`

func TestParseTokens(t *testing.T) {
	reg, err := ParseTokens(strings.NewReader(validTokens))
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Enabled() {
		t.Fatal("registry with two principals reports disabled")
	}

	alice, ok := reg.Authenticate("s3cr3t-alice")
	if !ok || alice.Name != "alice" {
		t.Fatalf("alice token: %+v ok=%v", alice, ok)
	}
	if alice.Weight != 4 || alice.MaxRunningCells != 8 || alice.MaxQueuedJobs != 16 || alice.MaxCacheBytes != 1048576 {
		t.Fatalf("alice quotas: %+v", alice)
	}

	bob, ok := reg.Authenticate("s3cr3t-bob")
	if !ok || bob.Name != "bob" {
		t.Fatalf("bob token: %+v ok=%v", bob, ok)
	}
	// Unset options: default weight, unlimited quotas.
	if bob.Weight != DefaultWeight || bob.MaxRunningCells != 0 || bob.MaxQueuedJobs != 0 || bob.MaxCacheBytes != 0 {
		t.Fatalf("bob defaults: %+v", bob)
	}

	if _, ok := reg.Authenticate("wrong"); ok {
		t.Fatal("unknown token authenticated")
	}
	if p, ok := reg.ByName("alice"); !ok || p != alice {
		t.Fatal("ByName(alice) did not resolve")
	}
	if _, ok := reg.ByName("eve"); ok {
		t.Fatal("ByName resolved an unregistered principal")
	}

	names := reg.Principals()
	if len(names) != 2 || names[0].Name != "alice" || names[1].Name != "bob" {
		t.Fatalf("Principals() = %v", names)
	}
}

// badTokens are token files ParseTokens must refuse.
var badTokens = []struct{ name, input string }{
	{"short line", "just-a-token\n"},
	{"bad name", "tok UPPER\n"},
	{"reserved name", "tok anonymous\n"},
	{"duplicate token", "tok alice\ntok bob\n"},
	{"duplicate principal", "tok1 alice\ntok2 alice\n"},
	{"bad option", "tok alice cells=3\n"},
	{"not key=value", "tok alice weight\n"},
	{"negative value", "tok alice max-cells=-1\n"},
	{"zero weight", "tok alice weight=0\n"},
	{"non-numeric", "tok alice weight=four\n"},
	{"empty file", "# only a comment\n"},
}

func TestParseTokensErrors(t *testing.T) {
	for _, tc := range badTokens {
		if _, err := ParseTokens(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: parse accepted %q", tc.name, tc.input)
		}
	}
}

// FuzzParseTokens feeds arbitrary bytes to ParseTokens, which reads
// icesimd's token file at boot. It must not panic, and in an accepted
// file each principal line's token must authenticate to the principal
// that line names, ByName must return that same principal, and every
// weight must be at least 1 (the fair queue's deficit loop terminates
// only because each rotation adds a positive weight).
func FuzzParseTokens(f *testing.F) {
	f.Add([]byte(validTokens))
	for _, tc := range badTokens {
		f.Add([]byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		reg, err := ParseTokens(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for _, line := range strings.Split(string(raw), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			token, name := fields[0], fields[1]
			p, ok := reg.Authenticate(token)
			if !ok || p.Name != name {
				t.Fatalf("token %q resolves to %+v (ok %v), want principal %q", token, p, ok, name)
			}
			if byName, ok := reg.ByName(name); !ok || byName != p {
				t.Fatalf("ByName(%q) = %+v (ok %v), want %+v", name, byName, ok, p)
			}
		}
		for _, p := range reg.Principals() {
			if p.Weight < 1 {
				t.Fatalf("principal %q has weight %d", p.Name, p.Weight)
			}
		}
	})
}

func TestNilRegistryDisabled(t *testing.T) {
	var reg *Registry
	if reg.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if _, ok := reg.Authenticate("x"); ok {
		t.Fatal("nil registry authenticated a token")
	}
	if _, ok := reg.ByName("x"); ok {
		t.Fatal("nil registry resolved a name")
	}
	if reg.Principals() != nil {
		t.Fatal("nil registry lists principals")
	}
	anon := Anonymous()
	if anon.Name != AnonymousName || anon.Weight != DefaultWeight || anon.MaxRunningCells != 0 {
		t.Fatalf("anonymous principal %+v", anon)
	}
}
