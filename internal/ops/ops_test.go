package ops

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"saco/internal/metrics"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMuxRoutes: the shared routes answer from their probes and the
// registry — a nil probe always passes, a failing one is a 503 carrying
// the probe's own words, and /readyz follows its probe both ways.
func TestMuxRoutes(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("saco_test_total", "a counter").Add(3)
	var ready atomic.Bool
	mux := NewMux(reg, nil, func() error {
		if !ready.Load() {
			return errors.New("joining")
		}
		return nil
	})
	mux.HandleFunc("/own", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "mine") }) //nolint:errcheck
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, step := range []struct {
		ready      bool
		path       string
		wantStatus int
		wantBody   string
	}{
		{false, "/healthz", 200, "ok\n"},
		{false, "/readyz", 503, "joining\n"},
		{true, "/readyz", 200, "ready\n"},
		{true, "/healthz", 200, "ok\n"},
		{false, "/readyz", 503, "joining\n"},
		{false, "/own", 200, "mine"},
	} {
		ready.Store(step.ready)
		if status, body := get(t, ts.URL+step.path); status != step.wantStatus || body != step.wantBody {
			t.Errorf("ready=%v GET %s = %d %q, want %d %q", step.ready, step.path, status, body, step.wantStatus, step.wantBody)
		}
	}
	if status, body := get(t, ts.URL+"/metrics"); status != 200 || !strings.Contains(body, "saco_test_total 3") {
		t.Errorf("GET /metrics = %d %q", status, body)
	}
}

// TestServerLimits: the one constructor sets all four connection
// limits, and they bite — a client that sends half a request line and
// stalls is disconnected once ReadHeaderTimeout elapses, while a
// well-formed request on another connection is served meanwhile.
func TestServerLimits(t *testing.T) {
	srv := NewServer(NewMux(metrics.NewRegistry(), nil, nil))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("a limit is unset: header %v, read %v, idle %v, header bytes %d",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Fatalf("ReadTimeout %v is shorter than ReadHeaderTimeout %v", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}

	srv.ReadHeaderTimeout = 100 * time.Millisecond // the test cannot wait out the real one
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}

	if status, body := get(t, "http://"+ln.Addr().String()+"/healthz"); status != 200 || body != "ok\n" {
		t.Fatalf("well-formed request beside a stalled one: %d %q", status, body)
	}

	// The server hangs up on the stalled connection (after at most an
	// error reply); the client-side deadline only bounds the test if it
	// does not.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if reply, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("stalled connection still open after ReadHeaderTimeout: read %q, then %v", reply, err)
	}
}
