package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// newMux builds the observability endpoint's routes:
//
//	/metrics        Prometheus text exposition of reg
//	/debug/vars     expvar (Go runtime memstats, cmdline)
//	/debug/pprof/   net/http/pprof profiles
//	/debug/events   the event ring, oldest first (when ring is non-nil)
//
// plus the caller's extra routes (e.g. the tracing layer's /debug/traces),
// which must not collide with these.
func newMux(reg *Registry, ring *EventRing, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client went away
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if ring != nil {
		mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			recorded, dropped := ring.Stats()
			fmt.Fprintf(w, "# events recorded=%d retained=%d dropped=%d\n",
				recorded, ring.Len(), dropped)
			ring.WriteTo(w) //nolint:errcheck // best-effort debug dump
		})
	}
	for path, h := range extra {
		mux.Handle(path, h)
	}
	return mux
}

// HTTPServer is a running observability endpoint; Close shuts it down.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint (newMux) on addr (e.g.
// "127.0.0.1:9100" or ":0" for an ephemeral port), with extra routes mounted
// beside the standard ones (nil: none), and returns the server and its bound
// address.
func Serve(addr string, reg *Registry, ring *EventRing, extra map[string]http.Handler) (*HTTPServer, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: newMux(reg, ring, extra), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return &HTTPServer{ln: ln, srv: srv}, ln.Addr().String(), nil
}

// Addr returns the bound address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes idle connections.
func (s *HTTPServer) Close() error { return s.srv.Close() }
