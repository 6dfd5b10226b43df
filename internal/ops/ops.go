// Package ops is the one operational HTTP surface every saco binary
// serves: the shared probe and scrape routes, and the only http.Server
// constructor in non-test code. cmd/saserve (through serve.Server.Handler)
// and cmd/sarank (-health) mount their own routes on the mux NewMux
// returns and listen through NewServer, so the routes and the
// connection limits below exist once.
package ops

import (
	"fmt"
	"net/http"
	"time"

	"saco/internal/metrics"
)

// Connection limits of every listener. They are constants, not flags:
// no deployment of these binaries needs a client that is slower than
// this, and a client that is (slowloris, a stalled upload) must not be
// able to pin a connection and its goroutine forever.
const (
	// ReadHeaderTimeout bounds the request line and headers.
	ReadHeaderTimeout = 5 * time.Second
	// ReadTimeout bounds one whole request including its body. The
	// largest body any route accepts is serve's 32 MiB MaxBodyBytes
	// default; a minute admits it from any client sustaining 0.6 MiB/s.
	ReadTimeout = time.Minute
	// IdleTimeout bounds how long a keep-alive connection may sit
	// between requests.
	IdleTimeout = 2 * time.Minute
	// MaxHeaderBytes caps the request line plus headers; no route reads
	// more than a Content-Type and a query string.
	MaxHeaderBytes = 64 << 10
)

// Probe reports nil while the process passes a health check; a non-nil
// error fails it, and its text is the 503 body. A nil Probe always
// passes.
type Probe func() error

// NewMux returns a mux serving the shared routes — GET /healthz from
// live ("ok"), GET /readyz from ready ("ready"), and reg at /metrics in
// the Prometheus text format — for the caller to mount its own routes
// next to.
func NewMux(reg *metrics.Registry, live, ready Probe) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/healthz", probeHandler(live, "ok"))
	mux.Handle("/readyz", probeHandler(ready, "ready"))
	mux.Handle("/metrics", reg.Handler())
	return mux
}

func probeHandler(p Probe, pass string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if p != nil {
			if err := p(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, pass)
	})
}

// NewServer returns an http.Server for h carrying the package's
// connection limits; the caller owns the listener and the shutdown.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
}
