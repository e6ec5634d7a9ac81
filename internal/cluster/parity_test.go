package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// postRaw posts body verbatim (malformed JSON included) and returns the
// status plus raw response.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// answer is the role-independent part of a solve response: values in every
// family's shape plus the echoed touched cells, or the error code.
type answer struct {
	ValuesInt   []int64         `json:"values_int"`
	ValuesFloat []float64       `json:"values_float"`
	Values      []float64       `json:"values"`
	Cells       json.RawMessage `json:"cells"`
	Code        int             `json:"code"`
}

// TestRoleParity sends every body to a lone irserved and to an ircoord
// fronting it: both decode through the same server.Request pipeline, so
// each answers with the same status and error code, and valid bodies with
// identical values on the sparse fast path and under its kill switch.
func TestRoleParity(t *testing.T) {
	const maxN = 64
	leak := checkGoroutines(t)
	func() {
		srv := server.New(server.Config{MaxN: maxN})
		worker := httptest.NewServer(srv.Handler())
		defer worker.Close()
		defer srv.Shutdown(t.Context())
		co := New(Config{Workers: []string{worker.URL}, MaxN: maxN, ProbeInterval: -1,
			HedgeAfter: -1, Logger: log.New(io.Discard, "", 0)})
		defer co.Close()
		front := httptest.NewServer(co.Handler())
		defer front.Close()

		cases := []struct {
			name, endpoint, body string
			code                 int
		}{
			{"malformed JSON", "ordinary", `{"system":`, http.StatusBadRequest},
			{"unknown op", "ordinary", `{"system":{"m":3,"g":[1,2],"f":[0,1]},"op":"nope","init":[1,2,3]}`, http.StatusBadRequest},
			{"wrong init length", "ordinary", `{"system":{"m":3,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,2]}`, http.StatusBadRequest},
			{"H != G on ordinary", "ordinary", `{"system":{"m":3,"g":[1,2],"f":[0,1],"h":[0,0]},"op":"int64-add","init":[1,2,3]}`, http.StatusBadRequest},
			{"unsorted sparse cells", "ordinary", `{"system":{"m":1000,"g":[1],"f":[0],"cells":[7,3]},"op":"int64-add","init":[1,2]}`, http.StatusUnprocessableEntity},
			{"n > MaxN", "general", `{"system":{"m":2,"n":65,"g":[],"f":[]},"op":"int64-add","init":[1,2]}`, http.StatusBadRequest},
			{"extended linear g out of range", "linear", `{"m":2,"g":[5],"f":[0],"a":[1],"b":[1],"x0":[1,1],"extended":true}`, http.StatusBadRequest},
			{"non-finite x0", "linear", `{"m":2,"g":[1],"f":[0],"a":[1],"b":[1],"x0":[1,1e999]}`, http.StatusBadRequest},
			{"grid rows x cols overflow", "grid2d", `{"system":{"rows":4294967296,"cols":4294967296,"north":[],"west":[]}}`, http.StatusBadRequest},
			{"dense ordinary", "ordinary", `{"system":{"m":4,"g":[1,2,3],"f":[0,1,2]},"op":"int64-add","init":[1,2,3,4]}`, http.StatusOK},
			{"sparse ordinary", "ordinary", `{"system":{"m":60,"g":[1,2],"f":[0,1],"cells":[5,17,59]},"op":"float64-add","init":[0.1,0.2,0.3]}`, http.StatusOK},
			{"sparse general", "general", `{"system":{"m":60,"g":[1,2],"f":[0,1],"h":[0,0],"cells":[5,17,59]},"op":"mul-mod","mod":1000003,"init":[2,3,5]}`, http.StatusOK},
			{"linear", "linear", `{"m":3,"g":[1,2],"f":[0,1],"a":[2,3],"b":[1,1],"x0":[1,0,0]}`, http.StatusOK},
			{"moebius", "moebius", `{"m":2,"g":[1],"f":[0],"a":[1],"b":[1],"c":[1],"d":[2],"x0":[1,0]}`, http.StatusOK},
			{"grid2d", "grid2d", `{"system":{"rows":2,"cols":2,"semiring":"minplus","a":[1,1,1,1],"b":[1,1,1,1],"north":[1,2],"west":[1,2]}}`, http.StatusOK},
		}
		for _, sparse := range []bool{true, false} {
			prev := ir.SetSparseEnabled(sparse)
			for _, tc := range cases {
				var got [2]answer
				for k, base := range []string{worker.URL, front.URL} {
					code, data := postRaw(t, base+server.APIPrefix+tc.endpoint, tc.body)
					if code != tc.code {
						t.Errorf("sparse=%v %s: role %d answered HTTP %d, want %d: %s", sparse, tc.name, k, code, tc.code, data)
					}
					if err := json.Unmarshal(data, &got[k]); err != nil {
						t.Fatalf("sparse=%v %s: role %d: %v: %s", sparse, tc.name, k, err, data)
					}
				}
				w, c := got[0], got[1]
				if w.Code != c.Code {
					t.Errorf("sparse=%v %s: ErrorResponse.code irserved %d, ircoord %d", sparse, tc.name, w.Code, c.Code)
				}
				wb, _ := json.Marshal(w)
				cb, _ := json.Marshal(c)
				if !bytes.Equal(wb, cb) {
					t.Errorf("sparse=%v %s: irserved %s, ircoord %s", sparse, tc.name, wb, cb)
				}
				if tc.code == http.StatusOK && len(w.ValuesInt)+len(w.ValuesFloat)+len(w.Values) == 0 {
					t.Errorf("sparse=%v %s: no values in %s", sparse, tc.name, wb)
				}
			}
			ir.SetSparseEnabled(prev)
		}
		http.DefaultClient.CloseIdleConnections()
		client.SharedTransport().CloseIdleConnections()
	}()
	leak()
}

// TestCoordinatorClampsProcs checks that a client's procs never reaches a
// coordinator compile, a local-fallback solve or a worker above the
// coordinator's Procs budget.
func TestCoordinatorClampsProcs(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 1, func(c *Config) { c.Procs = 2 })
		defer down()
		body := `{"system":{"m":4,"g":[1,2,3],"f":[0,1,2]},"op":"int64-add","init":[1,2,3,4],"opts":{"procs":1048576}}`
		req, err := co.limits.DecodeOrdinary([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := req.Data.Opts.Procs; got != 2 {
			t.Fatalf("coordinator plan data procs = %d, want 2", got)
		}

		var forwarded atomic.Int64
		forwarded.Store(-1)
		peek := func(r *http.Request) bool {
			if r.URL.Path == server.ShardPrefix+"solve" {
				blob, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(blob))
				var sr server.ShardRequest
				if json.Unmarshal(blob, &sr) == nil {
					forwarded.Store(int64(sr.Opts.Procs))
				}
			}
			return true
		}
		workers[0].intercept.Store(&peek)
		front := httptest.NewServer(co.Handler())
		defer front.Close()
		if code, data := postRaw(t, front.URL+server.APIPrefix+"ordinary", body); code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, data)
		}
		if got := forwarded.Load(); got != 2 {
			t.Fatalf("forwarded ShardRequest procs = %d, want 2", got)
		}
	}()
	leak()
}

// endless yields an unbounded stream of spaces.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestCoordinatorBodyLimit checks that a body past the coordinator's
// 64 MiB bound answers 400 "request body exceeds", not a truncated decode's
// misleading JSON syntax error.
func TestCoordinatorBodyLimit(t *testing.T) {
	co, _, down := newFleet(t, 0, nil)
	defer down()
	for _, path := range []string{server.APIPrefix + "ordinary", server.SessionPrefix} {
		body := io.MultiReader(strings.NewReader(`{"op":"int64-add",`), io.LimitReader(endless{}, maxBodyBytes+1))
		rec := httptest.NewRecorder()
		co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		var e server.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: %v: %s", path, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, "request body exceeds") {
			t.Fatalf("%s: HTTP %d %q, want 400 \"request body exceeds\"", path, rec.Code, e.Error)
		}
	}
}
