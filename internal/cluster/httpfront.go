package cluster

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"indexedrec/internal/server"
)

// The coordinator's HTTP front-end speaks the same /v1/solve API as a
// single irserved, so clients point at a coordinator without changing a
// line: ordinary, general, linear, moebius and grid2d bodies decode through
// the very server.Limits decoders irserved uses and scatter across the
// fleet, /v1/solve/loop answers 501 (loop execution is whole-machine by
// construction), and /healthz, /readyz, /metrics, /version behave as on
// irserved. /v1/cluster/workers reports the fleet view.

// The front-end's request bounds: bodies over maxBodyBytes answer 400, and
// a solve runs under the client's timeout_ms clamped to maxSolveTimeout, or
// solveTimeout when it set none (irserved's defaults).
const (
	maxBodyBytes    = 64 << 20
	solveTimeout    = 30 * time.Second
	maxSolveTimeout = 2 * time.Minute
)

func (co *Coordinator) routes() {
	co.mux = http.NewServeMux()
	co.allowed = make(map[string][]string)
	co.handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	co.handle("GET", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		// The coordinator is ready even with zero workers: solves degrade
		// to local execution rather than failing.
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	co.handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = co.reg.WriteTo(w)
	})
	co.handle("GET", "/version", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, co.metrics.requests, "version", http.StatusOK, server.BuildVersion())
	})
	co.handle("GET", server.ClusterPrefix+"workers", co.handleWorkers)
	co.handle("POST", server.ClusterPrefix+"register", co.handleRegister)
	co.handle("POST", server.ClusterPrefix+"heartbeat", co.handleHeartbeat)
	co.handle("POST", server.ClusterPrefix+"deregister", co.handleDeregister)
	co.sessionRoutes()
	co.handle("POST", server.APIPrefix+"ordinary", func(w http.ResponseWriter, r *http.Request) {
		co.handleSolve(w, r, "ordinary", co.limits.DecodeOrdinary)
	})
	co.handle("POST", server.APIPrefix+"general", func(w http.ResponseWriter, r *http.Request) {
		co.handleSolve(w, r, "general", co.limits.DecodeGeneral)
	})
	co.handle("POST", server.APIPrefix+"linear", func(w http.ResponseWriter, r *http.Request) {
		co.handleSolve(w, r, "linear", co.limits.DecodeLinear)
	})
	co.handle("POST", server.APIPrefix+"moebius", func(w http.ResponseWriter, r *http.Request) {
		co.handleSolve(w, r, "moebius", co.limits.DecodeMoebius)
	})
	co.handle("POST", server.APIPrefix+"grid2d", func(w http.ResponseWriter, r *http.Request) {
		co.handleSolve(w, r, "grid2d", co.limits.DecodeGrid2D)
	})
	co.handle("POST", server.APIPrefix+"loop", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, co.metrics.requests, "loop", http.StatusNotImplemented,
			"loop execution is not distributed; POST /v1/solve/loop to a worker directly")
	})
	co.fallbackRoutes()
}

// handle registers h for "METHOD path" and records the method under the
// path so fallbackRoutes can answer mismatches with the JSON wire error
// schema instead of the mux's plain-text pages.
func (co *Coordinator) handle(method, path string, h http.HandlerFunc) {
	co.mux.HandleFunc(method+" "+path, h)
	co.allowed[path] = append(co.allowed[path], method)
}

// fallbackRoutes closes the plain-text gaps a bare ServeMux leaves: a known
// path hit with the wrong method gets a 405 with an Allow header, and any
// unknown path gets a 404 — both as server.ErrorResponse JSON, the same
// schema every implemented endpoint (and irserved) speaks, so clients never
// need a second error decoder for the coordinator's edges.
func (co *Coordinator) fallbackRoutes() {
	for path, methods := range co.allowed {
		allow := strings.Join(methods, ", ")
		co.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			server.WriteError(w, co.metrics.requests, "unmatched", http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed for %s (allow: %s)", r.Method, r.URL.Path, allow))
		})
	}
	co.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, co.metrics.requests, "unmatched", http.StatusNotFound,
			fmt.Sprintf("no such endpoint %s (solve endpoints live under %s)", r.URL.Path, server.APIPrefix))
	})
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
// membership writes control where shard payloads are routed.
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
// server.Request): decode → Solve (plan, scatter, merge) → Response.
func (co *Coordinator) handleSolve(w http.ResponseWriter, r *http.Request, endpoint string, decode func([]byte) (*server.Request, error)) {
	start := time.Now()
	body, err := server.ReadBody(w, r, maxBodyBytes)
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
	sol, err := co.Solve(ctx, req)
	co.metrics.solveLatency.With(endpoint).Observe(time.Since(start).Seconds())
	if err != nil {
		server.WriteError(w, co.metrics.requests, endpoint, server.StatusForSolve(err), err.Error())
		return
	}
	resp, err := req.Response(sol, time.Since(start))
	if err != nil {
		server.WriteError(w, co.metrics.requests, endpoint, server.StatusForSolve(err), err.Error())
		return
	}
	server.WriteJSON(w, co.metrics.requests, endpoint, http.StatusOK, resp)
}
