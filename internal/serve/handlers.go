package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies; queries are small.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP surface:
//
//	GET  /healthz       liveness
//	GET  /v1/stats      server counters (cache, singleflight, shedding)
//	GET  /v1/workloads  the queryable workloads and the default scale
//	POST /v1/query      one Query → one Result
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

// writeErr maps an answer error onto HTTP: shedErrors carry their own
// status (and Retry-After for 429/503), everything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		if shed.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
		}
		writeJSON(w, shed.status, errorBody{Error: shed.msg, RetryAfter: shed.retryAfter})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "code_version": s.codeVersion})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name     string `json:"name"`
		Disks    int    `json:"disks"`
		Requests int    `json:"paper_requests"`
	}
	var out []wl
	for _, spec := range trace.Workloads() {
		out = append(out, wl{Name: spec.Name, Disks: spec.Disks, Requests: spec.Requests})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

// decodeQuery parses one Query from the request body.
func decodeQuery(r *http.Request) (Query, error) {
	var q Query
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return Query{}, fmt.Errorf("parsing query: %w", err)
	}
	return q, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := decodeQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	body, hit, err := s.answer(r.Context(), q)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Idp-Cache", cacheHeader(hit))
	// body is the shared cached slice: write the trailing newline
	// separately rather than appending into its backing array.
	w.Write(body)
	w.Write([]byte{'\n'})
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
