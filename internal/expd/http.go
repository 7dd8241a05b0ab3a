package expd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Handler builds the service's HTTP API:
//
//	POST /jobs              submit a spec (JSON body) -> job status
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         job status (exact ID or unique >=6-char prefix)
//	POST /jobs/{id}/cancel  stop a queued or running job
//	GET  /jobs/{id}/result  ?format=csv|json|md (csv default)
//	GET  /jobs/{id}/stream  NDJSON progress events until the job settles
//	GET  /jobs/{id}/trace   ?point=i Chrome/Perfetto trace of one hicma point
//	GET  /metrics           ?format=csv|text service counters, gauges, histograms
//	GET  /healthz           liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("POST /jobs/{id}/cancel", s.withJob(s.handleCancel))
	mux.HandleFunc("GET /jobs/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /jobs/{id}/stream", s.withJob(s.handleStream))
	mux.HandleFunc("GET /jobs/{id}/trace", s.withJob(s.handleTrace))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// withJob resolves the {id} path segment (exact or unique prefix) before
// dispatching to the handler.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := s.Resolve(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		h(w, r, id)
	}
}

// maxSpecBytes bounds a submitted spec body; a larger one is refused with
// 413 rather than truncated into a spec the client did not send.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	st, fresh, err := s.Submit(body)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			code = http.StatusTooManyRequests
		}
		writeError(w, code, err)
		return
	}
	code := http.StatusOK
	if fresh {
		code = http.StatusCreated
	}
	writeJSON(w, code, struct {
		JobStatus
		Fresh bool `json:"fresh"`
	}{st, fresh})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, id string) {
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, id string) {
	st, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, id string) {
	spec, pts, results, err := s.Result(id)
	if err != nil {
		code := http.StatusConflict
		if strings.Contains(err.Error(), "no job") {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	switch r.URL.Query().Get("format") {
	case "json":
		writeJSON(w, http.StatusOK, map[string]any{
			"spec": spec, "points": pts, "results": results,
		})
	case "md":
		t, err := AssembleTable(spec, pts, results)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		t.Markdown(w)
	default:
		t, err := AssembleTable(spec, pts, results)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		t.CSV(w)
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, id string) {
	ch, off, st, err := s.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer off()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Lead with a status snapshot so late subscribers know where the job
	// stands before deltas arrive.
	enc.Encode(Event{Type: "state", Job: st.ID, State: st.State,
		Total: st.Points, Done: st.Done, Error: st.Error})
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, id string) {
	idx := 0
	if q := r.URL.Query().Get("point"); q != "" {
		var err error
		if idx, err = strconv.Atoi(q); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("expd: bad point index %q", q))
			return
		}
	}
	p, err := s.Point(id, idx)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	events, err := TracePoint(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-p%d.trace.json", id[:12], idx))
	writeTrace(w, events)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t := s.MetricsTable()
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		t.CSV(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t.Write(w)
}
