package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/tenant"
)

// ErrUnauthorized is returned by authPrincipal for a missing or
// unknown bearer token (HTTP 401).
var ErrUnauthorized = errors.New("service: missing or invalid bearer token")

// errBadBody marks a request body that does not decode (HTTP 400).
var errBadBody = errors.New("invalid")

// maxRequestBytes caps every request body (HTTP 413 beyond it). The
// largest legitimate body, a JobSpec inside a shardRequest, is under
// 1 KB; without a cap one oversized POST is buffered whole by the
// decoder before it is rejected.
const maxRequestBytes = 1 << 20

// authPrincipal resolves the caller's principal on a protected route.
// With auth disabled every caller is the anonymous principal; with
// auth enabled the request must carry "Authorization: Bearer <token>"
// matching the token file.
func (m *Manager) authPrincipal(r *http.Request) (string, error) {
	if !m.cfg.AuthTokens.Enabled() {
		return tenant.AnonymousName, nil
	}
	token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if ok && token != "" {
		if p, found := m.cfg.AuthTokens.Authenticate(token); found {
			return p.Name, nil
		}
	}
	m.mu.Lock()
	m.authFailCtr.Inc()
	m.mu.Unlock()
	return "", ErrUnauthorized
}

// NewServer wires the daemon's HTTP API over a Manager:
//
//	GET  /healthz           liveness
//	GET  /experiments       the shared experiment registry (IDs + axes)
//	GET  /schemes           the policy scheme registry (names, aliases, axes)
//	GET  /metrics           service instruments (text; ?format=json)
//	POST /jobs              submit a JobSpec, returns the JobView
//	GET  /jobs              list jobs in submission order
//	GET  /jobs/{id}         one job's status
//	POST /jobs/{id}/cancel  request cancellation
//	GET  /jobs/{id}/stream  progress stream: NDJSON, or SSE when the
//	                        client sends Accept: text/event-stream
//	GET  /jobs/{id}/result  terminal job's result payload (JSON)
//	GET  /jobs/{id}/trace   terminal job's Perfetto trace-event JSON
//	GET  /fleet/metrics     fleet-wide exposition: self + every member
//	                        re-labelled per peer (see fleet.go)
//	POST /internal/cells    execute a cell range for a coordinator
//	                        (worker nodes only; see shard.go)
//	POST /internal/join     register a worker into the fleet at runtime
//	                        (coordinators only; see shard.go)
//	POST /internal/leave    deregister a draining worker
//	GET  /internal/cache/{key}  serve this node's cached entry for a
//	                        SHA-256 cache key in the store wire format
//	                        (any node; see peercache.go)
//
// Every route runs behind a metrics middleware that records
// service.http.{requests,errors,latency_us}.<route>.
//
// With Config.AuthTokens set, the mutating routes (POST /jobs,
// POST /jobs/{id}/cancel) and the internal fleet routes require a
// bearer token from the token file; health and metrics stay open so
// probes and scrapers need no credentials. Cancel additionally enforces
// ownership: a principal may only cancel its own jobs. A fleet route
// this node's role does not serve answers 403 before any credential
// check. Request bodies are capped at maxRequestBytes.
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()

	// handle wires one route through the HTTP metrics middleware. The
	// route id is a stable label value; the mux pattern is not (its
	// wildcards read poorly in label values).
	handle := func(pattern, route string, h http.HandlerFunc) {
		ri := m.routeInstrumentsFor(route)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			start := time.Now()
			h(sw, r)
			m.noteHTTP(ri, sw.status, time.Since(start))
		})
	}
	// authed wires a route that needs the caller's principal. A non-nil
	// refuse answers every request 403 before any credential check: the
	// route belongs to another role.
	authed := func(pattern, route string, refuse error, h func(http.ResponseWriter, *http.Request, string)) {
		handle(pattern, route, func(w http.ResponseWriter, r *http.Request) {
			if refuse != nil {
				writeErr(w, http.StatusForbidden, refuse)
				return
			}
			principal, err := m.authPrincipal(r)
			if err != nil {
				fail(w, err)
				return
			}
			h(w, r, principal)
		})
	}
	var notWorker, notCoordinator error
	if !m.cfg.WorkerEndpoint {
		notWorker = errors.New("not a worker node (start icesimd with -role worker)")
	}
	if !m.coordinates() {
		notCoordinator = errors.New("not a coordinator (start icesimd with -role coordinator or -peers)")
	}

	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Health())
	})

	handle("GET /experiments", "experiments", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			ID   string `json:"id"`
			Desc string `json:"desc"`
			Axes string `json:"axes"`
		}
		var out []entry
		for _, runner := range experiments.Registry() {
			out = append(out, entry{ID: runner.ID, Desc: runner.Desc, Axes: runner.Axes})
		}
		writeJSON(w, http.StatusOK, out)
	})

	handle("GET /schemes", "schemes", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			Name     string   `json:"name"`
			Aliases  []string `json:"aliases,omitempty"`
			Desc     string   `json:"desc"`
			Axes     []string `json:"axes,omitempty"`
			Headline bool     `json:"headline,omitempty"`
		}
		var out []entry
		for _, info := range policy.Infos() {
			out = append(out, entry{
				Name: info.Name, Aliases: info.Aliases, Desc: info.Desc,
				Axes: info.Axes, Headline: info.Headline,
			})
		}
		writeJSON(w, http.StatusOK, out)
	})

	// Content negotiation: ?format=json keeps the structured snapshot,
	// ?format=prom (or a Prometheus scraper's Accept header) selects the
	// text exposition, anything else keeps the legacy line dump.
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		format := r.URL.Query().Get("format")
		switch {
		case format == "json":
			writeJSON(w, http.StatusOK, m.Metrics())
		case format == "prom" || strings.Contains(r.Header.Get("Accept"), "version=0.0.4"):
			text, err := m.PromMetrics()
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			w.Header().Set("Content-Type", obs.PromContentType)
			w.Write(text)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			m.Metrics().WriteTo(w)
		}
	})

	handle("GET /fleet/metrics", "fleet_metrics", func(w http.ResponseWriter, r *http.Request) {
		if notCoordinator != nil {
			writeErr(w, http.StatusNotFound, notCoordinator)
			return
		}
		text, err := m.FleetMetrics(r.Context())
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		w.Write(text)
	})

	authed("POST /jobs", "jobs_submit", nil, func(w http.ResponseWriter, r *http.Request, principal string) {
		var spec JobSpec
		if err := decodeBody(w, r, "job spec", &spec); err != nil {
			fail(w, err)
			return
		}
		view, err := m.SubmitAs(spec, principal)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, view)
	})

	handle("GET /jobs", "jobs_list", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})

	handle("GET /jobs/{id}", "jobs_get", func(w http.ResponseWriter, r *http.Request) {
		view, err := m.Get(r.PathValue("id"))
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})

	authed("POST /jobs/{id}/cancel", "jobs_cancel", nil, func(w http.ResponseWriter, r *http.Request, principal string) {
		requested, err := m.CancelBy(r.PathValue("id"), principal)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"cancel_requested": requested})
	})

	handle("GET /jobs/{id}/result", "jobs_result", func(w http.ResponseWriter, r *http.Request) {
		payload, state, err := m.Result(r.PathValue("id"))
		if err != nil {
			fail(w, err)
			return
		}
		if !terminal(state) {
			writeErr(w, http.StatusConflict, fmt.Errorf("job is %s; stream /jobs/{id}/stream or poll", state))
			return
		}
		if payload == nil {
			writeErr(w, http.StatusGone, fmt.Errorf("job %s produced no result", state))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	})

	handle("GET /jobs/{id}/trace", "jobs_trace", func(w http.ResponseWriter, r *http.Request) {
		payload, state, err := m.Trace(r.PathValue("id"))
		if err != nil {
			fail(w, err)
			return
		}
		if !terminal(state) {
			writeErr(w, http.StatusConflict, fmt.Errorf("job is %s", state))
			return
		}
		if payload == nil {
			writeErr(w, http.StatusNotFound, errors.New("no trace recorded; submit with \"trace\": true"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename=\"icesim-trace.json\"")
		w.Write(payload)
	})

	// Worker half of the sharding protocol (see shard.go): execute a
	// coordinator-assigned cell range. Served only with
	// Config.WorkerEndpoint, so a plain node never runs foreign cell
	// ranges by accident. The coordinator authenticates with its own
	// fleet token; the submitting tenant's identity travels in the
	// request body and is attributed (and quota'd) as-is — the worker
	// trusts an authenticated coordinator's principal claim.
	authed("POST "+internalCellsPath, "internal_cells", notWorker, func(w http.ResponseWriter, r *http.Request, _ string) {
		var req shardRequest
		if err := decodeBody(w, r, "shard request", &req); err != nil {
			fail(w, err)
			return
		}
		if req.Version != codeVersion() {
			writeErr(w, http.StatusConflict,
				fmt.Errorf("version mismatch: coordinator %q, worker %q", req.Version, codeVersion()))
			return
		}
		cells, err := m.ExecCellRange(r.Context(), req.Spec, req.From, req.To, req.Principal)
		if err != nil {
			fail(w, err)
			return
		}
		resp := shardResponse{Cells: make([]json.RawMessage, len(cells))}
		for i, c := range cells {
			resp.Cells[i] = c
		}
		writeJSON(w, http.StatusOK, resp)
	})

	// Runtime membership (see shard.go): a worker announces itself to a
	// coordinator, which admits it into dispatch rotation — and into
	// every job already running — immediately.
	authed("POST "+internalJoinPath, "internal_join", notCoordinator, func(w http.ResponseWriter, r *http.Request, _ string) {
		var req joinRequest
		if err := decodeBody(w, r, "join request", &req); err != nil {
			fail(w, err)
			return
		}
		n, err := m.RegisterPeer(req.Addr, req.Node, req.Version)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"peers": n})
	})

	authed("POST "+internalLeavePath, "internal_leave", notCoordinator, func(w http.ResponseWriter, r *http.Request, _ string) {
		var req joinRequest
		if err := decodeBody(w, r, "leave request", &req); err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": m.DeregisterPeer(req.Addr)})
	})

	// Peer-shared cache read (see peercache.go): any node serves its
	// own cached entries; the integrity header lets the caller verify
	// end to end before trusting a byte.
	authed("GET "+internalCachePath+"{key}", "internal_cache", nil, func(w http.ResponseWriter, r *http.Request, _ string) {
		key := r.PathValue("key")
		if !validCacheKey(key) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("cache key must be 64 hex characters, got %q", key))
			return
		}
		entry, ok := m.peerCacheEntry(key)
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("no cached entry for key"))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(entry)
	})

	handle("GET /jobs/{id}/stream", "jobs_stream", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		events, cancelSub, err := m.Subscribe(id)
		if err != nil {
			fail(w, err)
			return
		}
		defer cancelSub()

		sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)

		write := func(ev StreamEvent) bool {
			b, err := json.Marshal(ev)
			if err != nil {
				return false
			}
			if sse {
				_, err = fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				_, err = fmt.Fprintf(w, "%s\n", b)
			}
			if err != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
			return true
		}

		// The channel closes right after the terminal event.
		for {
			select {
			case ev, ok := <-events:
				if !ok || !write(ev) {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	})

	return mux
}

// statusWriter captures the response status for the metrics middleware
// while passing Flush through so streaming routes keep flushing.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HealthView is the GET /healthz payload: enough identity for a fleet
// scraper or dashboard to label this node without out-of-band config.
type HealthView struct {
	OK            bool   `json:"ok"`
	Role          string `json:"role"`
	Node          string `json:"node"`
	Version       string `json:"version"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Peers         int    `json:"peers"`
}

// Health reports the daemon's identity and liveness. Peers is the live
// membership count (seed members plus runtime joins, minus pruned).
func (m *Manager) Health() HealthView {
	return HealthView{
		OK:            true,
		Role:          m.cfg.Role,
		Node:          m.cfg.Node,
		Version:       codeVersion(),
		UptimeSeconds: int64(time.Since(m.start).Seconds()),
		Peers:         m.PeerCount(),
	}
}

// validCacheKey reports whether key looks like a SHA-256 cache key
// (64 lowercase hex characters) — the only keys the store can hold.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// fail answers an error from the manager or the request decoder with
// its status.
func fail(w http.ResponseWriter, err error) {
	writeErr(w, statusOf(err), err)
}

// statusOf is the one map from an error to its HTTP status.
func statusOf(err error) int {
	var bad *BadSpecError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &bad), errors.Is(err, errBadBody), errors.Is(err, ErrBadPeerAddr):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrPeerVersion):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrTooManyPeers):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// decodeBody is the one request-body decoder: JSON into v, unknown
// fields rejected, at most maxRequestBytes read. what names the body
// in the error.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w %s: %w", errBadBody, what, err)
	}
	return nil
}
