package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the embeddable observability endpoint: /metrics (Prometheus
// text format), /healthz, /manifest (JSON run manifest when attached) and
// the full /debug/pprof suite. Every dgs subcommand that runs a process
// (server, worker, agg, replica, train) and the in-process sim embed one; it costs nothing until something scrapes it.
type Server struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	manifest *Manifest
}

// ListenAndServe starts the endpoint on addr (e.g. "127.0.0.1:9090", or
// ":0" for an ephemeral port — read the bound address back with Addr).
// A nil registry means Default().
func ListenAndServe(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		reg = Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{reg: reg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/manifest", s.handleManifest)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the endpoint.
func (s *Server) URL() string { return "http://" + s.Addr() }

// SetManifest attaches a run manifest served at /manifest.
func (s *Server) SetManifest(m *Manifest) {
	s.mu.Lock()
	s.manifest = m
	s.mu.Unlock()
}

// Close stops the endpoint immediately (in-flight scrapes are aborted;
// metrics are monitoring data, not state).
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	m := s.manifest
	s.mu.Unlock()
	if m == nil {
		http.Error(w, "no run manifest attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.Snapshot())
}
