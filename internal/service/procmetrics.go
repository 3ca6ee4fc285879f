// procmetrics.go covers the daemon-level observability the instrument
// registry cannot see from inside a simulation: process runtime state
// (uptime, goroutines, heap, GC pauses), the per-endpoint HTTP
// middleware instruments, and the Prometheus rendering of the whole
// service registry.
package service

import (
	"bytes"
	"runtime"
	"time"

	"github.com/eurosys23/ice/internal/obs"
)

// sampleProcessLocked refreshes the process-level series. GC pauses
// are pulled from MemStats' PauseNs ring: the cycles completed since
// the previous sample (capped at the ring size) are observed into the
// pause histogram, so scraping at any cadence up to 256 GCs apart
// loses nothing.
func (m *Manager) sampleProcessLocked() {
	m.uptimeGauge.Set(int64(time.Since(m.start).Seconds()))
	m.goroutineGauge.Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapGauge.Set(int64(ms.HeapAlloc))
	if ms.NumGC > m.lastNumGC {
		delta := ms.NumGC - m.lastNumGC
		if delta > uint32(len(ms.PauseNs)) {
			delta = uint32(len(ms.PauseNs))
		}
		for i := uint32(0); i < delta; i++ {
			idx := (ms.NumGC - i + uint32(len(ms.PauseNs)) - 1) % uint32(len(ms.PauseNs))
			m.gcPauseUs.Observe(int64(ms.PauseNs[idx] / 1000))
		}
		m.gcCyclesCtr.Add(uint64(ms.NumGC - m.lastNumGC))
		m.lastNumGC = ms.NumGC
	}
}

// promRules fold the registry's dynamic-suffix series into labelled
// Prometheus families; see obs.PromRule. Every dynamic family the
// service can register must be listed here or the exposition fails the
// name lint (peer addresses contain ':', which is label-only territory).
var promRules = []obs.PromRule{
	{Prefix: peerInflightPrefix, Label: "peer"},
	{Prefix: peerHealthyPrefix, Label: "peer"},
	{Prefix: "service.http.requests.", Label: "route"},
	{Prefix: "service.http.errors.", Label: "route"},
	{Prefix: "service.http.latency_us.", Label: "route"},
	{Prefix: "service.tenant.submitted.", Label: "principal"},
	{Prefix: "service.tenant.rejected.", Label: "principal"},
	{Prefix: "service.tenant.preempted.", Label: "principal"},
	{Prefix: "service.tenant.queued_jobs.", Label: "principal"},
	{Prefix: "service.tenant.running_jobs.", Label: "principal"},
	{Prefix: "service.tenant.cache_bytes.", Label: "principal"},
	{Prefix: "sim.zram.stores.", Label: "codec"},
	{Prefix: "sim.sched.quanta.", Label: "class"},
}

// promOptions is the daemon's exposition configuration: role/node const
// labels on every sample plus the dynamic-family rules.
func (m *Manager) promOptions() obs.PromOptions {
	return obs.PromOptions{
		ConstLabels: []obs.PromLabel{
			{Key: "role", Value: m.cfg.Role},
			{Key: "node", Value: m.cfg.Node},
		},
		Rules: promRules,
	}
}

// PromMetrics renders the service registry as a Prometheus text
// exposition (0.0.4).
func (m *Manager) PromMetrics() ([]byte, error) {
	snap := m.Metrics()
	var b bytes.Buffer
	if err := obs.WriteProm(&b, snap, m.promOptions()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// routeInstrumentsFor returns (registering if needed) the middleware
// instrument triple for one mux route id.
func (m *Manager) routeInstrumentsFor(route string) *routeInstruments {
	m.mu.Lock()
	defer m.mu.Unlock()
	ri := m.httpRoutes[route]
	if ri == nil {
		ri = &routeInstruments{
			requests:  m.reg.Counter("service.http.requests." + route),
			errors:    m.reg.Counter("service.http.errors." + route),
			latencyUs: m.reg.Histogram("service.http.latency_us." + route),
		}
		m.httpRoutes[route] = ri
	}
	return ri
}

// noteHTTP records one served request on a route's instruments.
// Status >= 400 counts as an error; latency is wall-clock for the whole
// handler (a streaming route's latency is the stream's lifetime).
func (m *Manager) noteHTTP(ri *routeInstruments, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ri.requests.Inc()
	if status >= 400 {
		ri.errors.Inc()
	}
	ri.latencyUs.Observe(d.Microseconds())
}
