package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// statusClientClosed is nginx's conventional code for "client closed the
// connection before the response": nothing standard fits, the client is
// gone anyway, and the distinct code keeps the access logs honest.
const statusClientClosed = 499

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/solve  — one Request in, one Response out
//	POST /v1/batch  — []Request in, []Response out (at most one queue slot)
//	GET  /healthz   — liveness
//	GET  /statsz    — Stats counters as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStats)
	return mux
}

// handleSolve serves one request end to end.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !s.decodeBody(w, r, &req) {
		return
	}
	results, err := s.Submit(r.Context(), []*Request{&req})
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	res := results[0]
	if res.Err != nil {
		writeJSON(w, statusFor(res.Err), &Response{Algo: req.Algo, Error: res.Err.Error()})
		return
	}
	writeBody(w, http.StatusOK, res.Body)
}

// handleBatch serves a batch as one call: its cache hits answered at
// admission, the rest as one queued task. Admission failures (queue
// full, oversized batch) fail the whole batch; solver failures are
// per-item, reported in each Response's error field with the batch
// itself answering 200. The body is the per-item bodies joined into a
// JSON array, byte for byte what encoding the []*Response would write.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []*Request
	if !s.decodeBody(w, r, &reqs) {
		return
	}
	results, err := s.Submit(r.Context(), reqs)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	out := []byte{'['}
	for i, res := range results {
		body := res.Body
		if res.Err != nil {
			body, _ = encodeJSON(&Response{Algo: reqs[i].Algo, Error: res.Err.Error()})
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, bytes.TrimSuffix(body, []byte{'\n'})...)
	}
	writeBody(w, http.StatusOK, append(out, ']', '\n'))
}

// handleHealth answers liveness probes.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStats answers the counter snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// decodeBody decodes a size-capped JSON body, answering 400 itself on
// failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err := dec.Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{Error: fmt.Sprintf("malformed request: %v", err)})
		return false
	}
	return true
}

// writeSubmitError maps admission failures: shed → 429 + Retry-After,
// stopped → 503, bad batch → 400.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		// Ceil, not truncate: a sub-second hint must not round to
		// "Retry-After: 0" and invite an immediate retry storm.
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		writeJSON(w, http.StatusTooManyRequests, &Response{Error: err.Error()})
	case errors.Is(err, ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, &Response{Error: err.Error()})
	default:
		writeJSON(w, statusFor(err), &Response{Error: err.Error()})
	}
}

// statusFor classifies a per-request failure: client mistakes are 400,
// an expired per-request deadline is 504, a client that went away is
// 499, and anything else the solver reports is 422.
func statusFor(err error) int {
	switch {
	case IsBadRequest(err):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	default:
		return http.StatusUnprocessableEntity
	}
}

// writeJSON writes one JSON document with the right headers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := encodeJSON(v)
	writeBody(w, status, body)
}

// writeBody writes an encoded JSON document with the right headers.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// encodeJSON is the daemon's one JSON encoding: HTML escaping off and a
// trailing newline. Response bodies are encoded once with it, stored in
// the cache as is, and written by writeBody.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
