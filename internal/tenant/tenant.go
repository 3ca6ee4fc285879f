// Package tenant is the icesimd principal model: who a caller is, how
// much of the daemon they may occupy, and how their share of the fair
// scheduler is weighted.
//
// Principals come from a static token file (icesimd -auth-tokens), one
// per line:
//
//	# token      principal  options...
//	s3cr3t-alice alice      weight=4 max-cells=8 max-queued=16 cache-bytes=268435456
//	s3cr3t-bob   bob        weight=1
//
// The first field is the bearer token, the second the principal name;
// the rest are key=value options. Unset options mean "no limit"
// (weight defaults to 1). Lines starting with '#' and blank lines are
// ignored. Tokens and principal names must both be unique.
//
// With no token file the daemon runs open, exactly as before
// multi-tenancy existed: every caller is the Anonymous principal,
// which has weight 1 and no quotas, so the loopback dev flow is
// unchanged.
package tenant

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// AnonymousName is the principal every caller maps to when auth is off.
const AnonymousName = "anonymous"

// DefaultWeight is the scheduler weight of a principal whose token-file
// line does not set one.
const DefaultWeight = 1

// Principal is one authenticated tenant: its fair-scheduler weight and
// its admission quotas. A zero quota field means "unlimited".
type Principal struct {
	// Name identifies the principal in job views, metrics label values,
	// and the per-principal retention policy.
	Name string
	// Weight is the deficit-round-robin share: a weight-4 principal's
	// queue drains cells four times as fast as a weight-1 principal's
	// when both are backlogged. Minimum (and default) 1.
	Weight int
	// MaxRunningCells bounds how many of this principal's simulation
	// cells may execute concurrently, across all its running jobs.
	MaxRunningCells int
	// MaxQueuedJobs bounds how many of this principal's jobs may wait in
	// the scheduler at once; submissions beyond it are rejected 429.
	MaxQueuedJobs int
	// MaxCacheBytes bounds this principal's bytes in the disk store;
	// results beyond it stay in memory but are not persisted.
	MaxCacheBytes int64
}

// Anonymous returns the open-mode principal: weight 1, no quotas.
func Anonymous() *Principal {
	return &Principal{Name: AnonymousName, Weight: DefaultWeight}
}

// nameRE is the principal-name grammar. Names become metrics label
// values and instrument-name suffixes, so they stay conservative.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_-]{0,63}$`)

// Registry resolves bearer tokens to principals. The zero value (or a
// nil *Registry) means auth is disabled.
type Registry struct {
	byToken map[string]*Principal
	byName  map[string]*Principal
}

// Enabled reports whether the registry holds any principals; a nil
// registry is disabled.
func (r *Registry) Enabled() bool { return r != nil && len(r.byToken) > 0 }

// Authenticate resolves a bearer token. ok is false for unknown tokens.
func (r *Registry) Authenticate(token string) (*Principal, bool) {
	if r == nil {
		return nil, false
	}
	p, ok := r.byToken[token]
	return p, ok
}

// ByName resolves a principal by name — how a worker maps a
// coordinator-forwarded principal onto its own quota table.
func (r *Registry) ByName(name string) (*Principal, bool) {
	if r == nil {
		return nil, false
	}
	p, ok := r.byName[name]
	return p, ok
}

// Principals lists every registered principal, sorted by name.
func (r *Registry) Principals() []*Principal {
	if r == nil {
		return nil
	}
	out := make([]*Principal, 0, len(r.byName))
	for _, p := range r.byName {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseTokens reads a token file. Duplicate tokens or names, malformed
// options, and invalid principal names are errors; an input with no
// principal lines at all is an error too (an empty auth file almost
// certainly means a misconfigured deployment, not "run open").
func ParseTokens(r io.Reader) (*Registry, error) {
	reg := &Registry{
		byToken: make(map[string]*Principal),
		byName:  make(map[string]*Principal),
	}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("tenant: line %d: want \"token principal [key=value...]\"", lineno)
		}
		token, name := fields[0], fields[1]
		if !nameRE.MatchString(name) {
			return nil, fmt.Errorf("tenant: line %d: invalid principal name %q (want %s)", lineno, name, nameRE)
		}
		if name == AnonymousName {
			return nil, fmt.Errorf("tenant: line %d: %q is reserved for unauthenticated mode", lineno, AnonymousName)
		}
		if _, dup := reg.byToken[token]; dup {
			return nil, fmt.Errorf("tenant: line %d: duplicate token", lineno)
		}
		if _, dup := reg.byName[name]; dup {
			return nil, fmt.Errorf("tenant: line %d: duplicate principal %q", lineno, name)
		}
		p := &Principal{Name: name, Weight: DefaultWeight}
		for _, opt := range fields[2:] {
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("tenant: line %d: option %q is not key=value", lineno, opt)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("tenant: line %d: option %s wants a non-negative integer, got %q", lineno, key, val)
			}
			switch key {
			case "weight":
				if n < 1 {
					return nil, fmt.Errorf("tenant: line %d: weight must be >= 1", lineno)
				}
				p.Weight = int(n)
			case "max-cells":
				p.MaxRunningCells = int(n)
			case "max-queued":
				p.MaxQueuedJobs = int(n)
			case "cache-bytes":
				p.MaxCacheBytes = n
			default:
				return nil, fmt.Errorf("tenant: line %d: unknown option %q (weight, max-cells, max-queued, cache-bytes)", lineno, key)
			}
		}
		reg.byToken[token] = p
		reg.byName[name] = p
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reg.byToken) == 0 {
		return nil, fmt.Errorf("tenant: token file defines no principals")
	}
	return reg, nil
}

// LoadTokens reads a token file from disk.
func LoadTokens(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg, err := ParseTokens(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reg, nil
}
