// Package debugserver serves the operational debug endpoints for the
// command-line tools: expvar's /debug/vars (live telemetry snapshots as
// JSON), net/http/pprof's /debug/pprof (CPU and memory profiling of a
// running device), and /healthz (aggregated component health for load
// balancers and orchestrators). The expvar and pprof handlers register
// themselves on http.DefaultServeMux at import time; this package
// publishes the telemetry variables, registers the health handler, and
// binds the listener.
package debugserver

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"sync"

	"repro/internal/telemetry"
)

// Publish exposes fn's result as a JSON variable under name on /debug/vars.
// fn is called on every scrape, so it should return a cheap snapshot (the
// telemetry Stats methods are all safe and cheap to call concurrently with
// traffic). Publishing the same name twice panics, like expvar.Publish.
func Publish(name string, fn func() any) {
	expvar.Publish(name, expvar.Func(fn))
}

// health is the /healthz registry. Unlike expvar, re-registering a name
// replaces the previous probe: a restarted measurement run re-wires its
// component without crashing the process.
var health struct {
	once   sync.Once
	mu     sync.Mutex
	probes map[string]func() (telemetry.HealthStatus, string)
}

// componentHealth is one component's entry in the /healthz response.
type componentHealth struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// RegisterHealth exposes fn as a named component on /healthz. fn is called
// on every probe and must be safe to call from any goroutine (the
// telemetry Health methods all are). Registering the same name again
// replaces the previous probe.
func RegisterHealth(name string, fn func() (telemetry.HealthStatus, string)) {
	health.once.Do(func() {
		health.probes = make(map[string]func() (telemetry.HealthStatus, string))
		http.HandleFunc("/healthz", serveHealth)
	})
	health.mu.Lock()
	defer health.mu.Unlock()
	health.probes[name] = fn
}

// serveHealth reports the worst status across registered components:
// HTTP 200 for ok and degraded (the device is still serving, possibly with
// reduced fidelity), 503 for unhealthy (stop routing traffic to it).
func serveHealth(w http.ResponseWriter, req *http.Request) {
	health.mu.Lock()
	probes := make(map[string]func() (telemetry.HealthStatus, string), len(health.probes))
	for name, fn := range health.probes {
		probes[name] = fn
	}
	health.mu.Unlock()

	overall := telemetry.HealthOK
	components := make(map[string]componentHealth, len(probes))
	for name, fn := range probes {
		st, reason := fn()
		if st > overall {
			overall = st
		}
		components[name] = componentHealth{Status: st.String(), Reason: reason}
	}
	code := http.StatusOK
	if overall == telemetry.HealthUnhealthy {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // best-effort response
		Status     string                     `json:"status"`
		Components map[string]componentHealth `json:"components"`
	}{overall.String(), components})
}

// Serve binds addr and serves /debug/vars, /debug/pprof and /healthz in a
// background goroutine for the life of the process. It returns the bound
// address, so addr may use port 0 to pick a free port.
func Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, nil) //nolint:errcheck // serves until process exit
	return ln.Addr(), nil
}
