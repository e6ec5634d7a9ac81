package server

import (
	"fmt"
	"net/http"
	"strings"
)

// Router is an http.ServeMux whose unmatched requests answer in the
// ErrorResponse schema every endpoint speaks: a known path hit with the
// wrong method gets 405 with an Allow header, any other path 404. irserved
// and ircoord both route through one, so clients never need a second error
// decoder for either role's edges.
type Router struct {
	mux     *http.ServeMux
	allowed map[string][]string
}

// NewRouter returns a Router with no routes.
func NewRouter() *Router {
	return &Router{mux: http.NewServeMux(), allowed: make(map[string][]string)}
}

// Handle registers h for "METHOD path".
func (rt *Router) Handle(method, path string, h http.HandlerFunc) {
	rt.mux.HandleFunc(method+" "+path, h)
	rt.allowed[path] = append(rt.allowed[path], method)
}

// Seal mounts the 405 and 404 fallbacks, counted in requests under the
// "unmatched" endpoint. Call it once, after the last Handle.
func (rt *Router) Seal(requests *CounterVec) {
	for path, methods := range rt.allowed {
		allow := strings.Join(methods, ", ")
		rt.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			WriteError(w, requests, "unmatched", http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed for %s (allow: %s)", r.Method, r.URL.Path, allow))
		})
	}
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, requests, "unmatched", http.StatusNotFound,
			fmt.Sprintf("no such endpoint %s (solve endpoints live under %s)", r.URL.Path, APIPrefix))
	})
}

// ServeHTTP dispatches r to its route or fallback.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}
