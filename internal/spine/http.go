package spine

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
)

// MetricsHandler returns an HTTP handler exposing snap: the Prometheus
// text exposition format by default, or the expvar-style nested JSON
// document when the request has format=json or a path ending in ".json".
// Snapshots are taken per request; the handler is safe while the cluster
// runs.
func MetricsHandler(snap func() obs.ClusterSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs := snap()
		if r.URL.Query().Get("format") == "json" || strings.HasSuffix(r.URL.Path, ".json") {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(obs.ExpvarMap(cs))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, cs)
	})
}

// Server is a runtime's HTTP endpoint: at most one, stopped by Close. The
// zero value is ready to use.
type Server struct {
	mu     sync.Mutex
	srv    *http.Server
	closed bool
	wg     sync.WaitGroup
}

// Serve starts the endpoint on addr (":0" picks a free port) and returns
// the bound address.
func (s *Server) Serve(addr string, h http.Handler) (string, error) {
	// Bind before taking the lock: the listen syscall can stall (a slow
	// DNS lookup for a hostname addr).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	switch {
	case s.closed:
		err = fmt.Errorf("HTTP endpoint: runtime is closed")
	case s.srv != nil:
		err = fmt.Errorf("HTTP endpoint already running on %s", s.srv.Addr)
	default:
		s.srv = &http.Server{Addr: ln.Addr().String(), Handler: h}
		s.wg.Add(1)
		go func(srv *http.Server) {
			defer s.wg.Done()
			_ = srv.Serve(ln)
		}(s.srv)
	}
	s.mu.Unlock()
	if err != nil {
		ln.Close()
		return "", err
	}
	return ln.Addr().String(), nil
}

// Close stops the endpoint, if one is running, and refuses later Serves.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	srv := s.srv
	s.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	s.wg.Wait()
}
