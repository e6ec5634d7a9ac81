package cluster

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"indexedrec/internal/server"
)

// The coordinator's HTTP front-end speaks the same /v1/solve API as a
// single irserved, so clients point at a coordinator without changing a
// line: ordinary, general, linear, moebius and grid2d bodies decode through
// the very server.Limits decoders irserved uses and are forwarded whole to
// one worker, /v1/solve/loop answers 501 (loop execution is whole-machine
// by construction), and /healthz, /readyz, /metrics, /version behave as on
// irserved. /v1/cluster/workers reports the fleet view.

// The front-end's request bounds: bodies over server.DefaultMaxRequestBytes
// answer 400, as on a default irserved, and a solve runs under the client's
// timeout_ms clamped to maxSolveTimeout, or solveTimeout when it set none
// (irserved's defaults).
const (
	solveTimeout    = 30 * time.Second
	maxSolveTimeout = 2 * time.Minute
)

func (co *Coordinator) routes() {
	co.mux = server.NewRouter()
	co.mux.Handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	co.mux.Handle("GET", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		// The coordinator is ready even with zero workers: solves degrade
		// to local execution rather than failing.
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	co.mux.Handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = co.reg.WriteTo(w)
	})
	co.mux.Handle("GET", "/version", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, co.metrics.requests, "version", http.StatusOK, server.BuildVersion())
	})
	co.mux.Handle("GET", server.ClusterPrefix+"workers", co.handleWorkers)
	co.mux.Handle("POST", server.ClusterPrefix+"register", co.handleRegister)
	co.mux.Handle("POST", server.ClusterPrefix+"heartbeat", co.handleHeartbeat)
	co.mux.Handle("POST", server.ClusterPrefix+"deregister", co.handleDeregister)
	co.sessionRoutes()
	for endpoint, decode := range map[string]func([]byte) (*server.Request, error){
		"ordinary": co.limits.DecodeOrdinary,
		"general":  co.limits.DecodeGeneral,
		"linear":   co.limits.DecodeLinear,
		"moebius":  co.limits.DecodeMoebius,
		"grid2d":   co.limits.DecodeGrid2D,
	} {
		co.mux.Handle("POST", server.APIPrefix+endpoint, func(w http.ResponseWriter, r *http.Request) {
			co.handleSolve(w, r, endpoint, decode)
		})
	}
	co.mux.Handle("POST", server.APIPrefix+"loop", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, co.metrics.requests, "loop", http.StatusNotImplemented,
			"loop execution is not distributed; POST /v1/solve/loop to a worker directly")
	})
	co.mux.Seal(co.metrics.requests)
}

// Handler returns the coordinator's HTTP handler.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// ListenAndServe serves the coordinator API on addr until ctx is cancelled.
func (co *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: co.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := hs.Shutdown(shCtx)
	co.Close()
	return err
}

// WorkerStatus is one row of GET /v1/cluster/workers.
type WorkerStatus struct {
	// Name is the worker's configured or registered address.
	Name string `json:"name"`
	// Up reports liveness: the last probe for static workers, an unexpired
	// lease for registered ones.
	Up bool `json:"up"`
	// Version is the build the worker reported at registration.
	Version string `json:"version,omitempty"`
	// Dynamic marks a self-registered, lease-governed member.
	Dynamic bool `json:"dynamic,omitempty"`
	// LeaseMs is the time left on a dynamic member's lease.
	LeaseMs int64 `json:"lease_ms,omitempty"`
	// Breaker is the circuit-breaker state: closed, half-open or open.
	Breaker string `json:"breaker"`
}

func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	members := co.memberList()
	out := make([]WorkerStatus, 0, len(members))
	for _, wk := range members {
		wk.mu.Lock()
		st := WorkerStatus{
			Name:    wk.name,
			Up:      wk.up,
			Version: wk.version,
			Dynamic: wk.dynamic,
			Breaker: breakerStateName(wk.br.snapshot()),
		}
		if wk.dynamic {
			if left := time.Until(wk.lease); left > 0 {
				st.LeaseMs = left.Milliseconds()
			}
		}
		wk.mu.Unlock()
		out = append(out, st)
	}
	server.WriteJSON(w, co.metrics.requests, "workers", http.StatusOK, out)
}

// authorizeMember gates the membership endpoints behind the shared cluster
// token when one is configured, answering 401 (and reporting false) on a
// missing or wrong token. Without a token the endpoints are open — the
// deployment must then keep the cluster API on a trusted network, since
// membership writes control where solve payloads are routed.
func (co *Coordinator) authorizeMember(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	if co.cfg.ClusterToken == "" {
		return true
	}
	got := r.Header.Get(server.ClusterTokenHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(co.cfg.ClusterToken)) == 1 {
		return true
	}
	server.WriteError(w, co.metrics.requests, endpoint, http.StatusUnauthorized,
		"missing or invalid "+server.ClusterTokenHeader+" cluster token")
	return false
}

// handleRegister admits a self-registering worker into the fleet and
// grants it a heartbeat lease.
func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !co.authorizeMember(w, r, "register") {
		return
	}
	var req server.RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, co.metrics.requests, "register", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Addr == "" {
		server.WriteError(w, co.metrics.requests, "register", http.StatusBadRequest, "missing \"addr\"")
		return
	}
	lease := co.register(req.Addr, req.Version)
	server.WriteJSON(w, co.metrics.requests, "register", http.StatusOK, server.RegisterResponse{LeaseMs: lease.Milliseconds()})
}

// handleHeartbeat renews a registered worker's lease; unknown members get
// 404 and should re-register.
func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !co.authorizeMember(w, r, "heartbeat") {
		return
	}
	var req server.MemberRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, co.metrics.requests, "heartbeat", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if !co.renew(req.Addr) {
		server.WriteError(w, co.metrics.requests, "heartbeat", http.StatusNotFound,
			fmt.Sprintf("unknown member %q, re-register", req.Addr))
		return
	}
	server.WriteJSON(w, co.metrics.requests, "heartbeat", http.StatusOK, server.RegisterResponse{LeaseMs: co.cfg.LeaseTTL.Milliseconds()})
}

// handleDeregister removes a draining worker from the fleet.
func (co *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if !co.authorizeMember(w, r, "deregister") {
		return
	}
	var req server.MemberRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, co.metrics.requests, "deregister", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	co.deregister(req.Addr)
	server.WriteJSON(w, co.metrics.requests, "deregister", http.StatusOK, map[string]string{"status": "ok"})
}

// handleSolve is the coordinator's end of the shared pipeline (see
// server.Request): read and decode the body under the same Limits irserved
// uses — so an invalid body gets irserved's answer and never reaches a
// worker — then solve (forward whole, or locally as a fallback) and write
// the answer. A forwarded answer is the worker's body byte for byte, so its
// elapsed_ms is the worker's own time, not the coordinator's.
func (co *Coordinator) handleSolve(w http.ResponseWriter, r *http.Request, endpoint string, decode func([]byte) (*server.Request, error)) {
	start := time.Now()
	body, err := server.ReadBody(w, r, server.DefaultMaxRequestBytes)
	if err != nil {
		server.WriteError(w, co.metrics.requests, endpoint, http.StatusBadRequest, err.Error())
		return
	}
	req, err := decode(body)
	if err != nil {
		server.WriteError(w, co.metrics.requests, endpoint, server.StatusForValidation(err), err.Error())
		return
	}
	ctx, cancel := server.RequestContext(r, req.TimeoutMs, solveTimeout, maxSolveTimeout)
	defer cancel()
	out, err := co.solve(ctx, endpoint, body, req, start)
	co.metrics.solveLatency.With(endpoint).Observe(time.Since(start).Seconds())
	if err != nil {
		server.WriteError(w, co.metrics.requests, endpoint, server.StatusForSolve(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
	co.metrics.requests.Inc(endpoint, "200")
}
