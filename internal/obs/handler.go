package obs

import (
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// HealthzHandler answers 200 "ok" — a liveness probe target.
func HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
}

// MountDebug attaches the observability surface to a mux: the registry on
// /metrics, a liveness probe on /healthz, and the net/http/pprof profilers
// under /debug/pprof/.
func MountDebug(mux *http.ServeMux, r *Registry) {
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/healthz", HealthzHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
