package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"saco/internal/dist"
	"saco/internal/metrics"
	"saco/internal/ops"
)

// healthServer is the rank's operational state — its gauges and its
// newest checkpoint — which the solve path updates unconditionally, and,
// with -health addr, the listener serving it:
//
//	GET /healthz     200 while the process is alive
//	GET /readyz      200 once the world is joined and solving,
//	                 503 while dialing or parked at the rendezvous
//	GET /metrics     Prometheus text exposition of the gauges
//	GET /checkpoint  JSON of the newest completed checkpoint
//	                 (dist.CheckpointInfo), 404 before the first save
//
// The first three are internal/ops' shared routes.
type healthServer struct {
	ln          net.Listener // nil without -health
	srv         *http.Server // nil without -health
	ready       atomic.Bool
	last        atomic.Pointer[dist.CheckpointInfo]
	checkpoints *metrics.Counter
	restarts    *metrics.Counter
	epoch       *metrics.Gauge
	step        *metrics.Gauge
}

// newHealthServer creates the rank's gauges and, unless addr is empty,
// binds it and starts serving immediately — liveness must answer while
// the rank is still parked at the rendezvous.
func newHealthServer(addr string, rank int) (*healthServer, error) {
	h := &healthServer{}
	reg := metrics.NewRegistry()
	lbl := metrics.Label{Key: "rank", Value: fmt.Sprint(rank)}
	h.checkpoints = reg.Counter("saco_rank_checkpoints_total",
		"Checkpoints this rank has published.", lbl)
	h.restarts = reg.Counter("saco_rank_restarts_total",
		"Supervised world restarts after a lost peer.", lbl)
	h.epoch = reg.Gauge("saco_rank_epoch",
		"Control-plane epoch of the currently joined world.", lbl)
	h.step = reg.Gauge("saco_rank_checkpoint_step",
		"Inner iteration of the newest checkpoint.", lbl)
	reg.GaugeFunc("saco_rank_ready",
		"1 once the world is joined and solving, 0 otherwise.",
		func() float64 {
			if h.ready.Load() {
				return 1
			}
			return 0
		}, lbl)
	if addr == "" {
		return h, nil
	}

	mux := ops.NewMux(reg, nil, func() error {
		if !h.ready.Load() {
			return errors.New("joining")
		}
		return nil
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, _ *http.Request) {
		ck := h.last.Load()
		if ck == nil {
			http.Error(w, "no checkpoint yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(ck); err != nil {
			return // client went away mid-write; nothing to salvage
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("health listener on %s: %w", addr, err)
	}
	h.ln = ln
	h.srv = ops.NewServer(mux)
	go func() {
		// Serve returns http.ErrServerClosed on shutdown; any earlier
		// error just means the surface is gone, which /healthz's absence
		// already signals to the supervisor.
		_ = h.srv.Serve(ln)
	}()
	return h, nil
}

// onSave is the dist.Checkpoint.OnSave hook.
func (h *healthServer) onSave(i dist.CheckpointInfo) {
	h.last.Store(&i)
	h.checkpoints.Inc()
	h.step.Set(int64(i.Step))
}

func (h *healthServer) setReady(ready bool) { h.ready.Store(ready) }

func (h *healthServer) setEpoch(epoch int) { h.epoch.Set(int64(epoch)) }

func (h *healthServer) noteRestart() { h.restarts.Inc() }

// addr returns the listener's bound address (-health only) — the :0
// form resolves to the real port for tests.
func (h *healthServer) addr() string { return h.ln.Addr().String() }

func (h *healthServer) shutdown() {
	if h.srv != nil {
		_ = h.srv.Close() // best-effort teardown on exit
	}
}
