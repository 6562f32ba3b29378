package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// StatusClientClosedRequest is the non-standard 499 status (popularized by
// nginx) the handler returns when the client's own cancellation stopped the
// run: no 4xx/5xx standard code says "you hung up".
const StatusClientClosedRequest = 499

// LabelResponse is the JSON body of a successful POST /label with
// out=json (the default): the component count, the image side, and —
// when requested — the per-component census and the raw label plane
// (row-major, seq.LabelBFS-identical seed labels, 0 = background).
type LabelResponse struct {
	Components int                   `json:"components"`
	N          int                   `json:"n"`
	Census     []image.ComponentStat `json:"census,omitempty"`
	Labels     []uint32              `json:"labels,omitempty"`
}

// errorResponse is the JSON body of every failed request.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP interface:
//
//	POST /label    body: binary PGM (P5; any other magic is a 400).
//	               Query: mode=binary|grey, conn=4|8, census=1,
//	               labels=1, out=json|pgm, deadline_ms=N. census=1 and
//	               labels=1 apply only with out=json (the default); an
//	               out=pgm response is the label PGM alone. Unknown
//	               parameters are ignored.
//	GET  /metrics  JSON array of parimg-metrics/v1 documents: the
//	               aggregate first, then recent per-request documents.
//	GET  /healthz  16×16 label round-trip through the scheduler path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /label", s.handleLabel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// statusOf maps the typed error taxonomy onto HTTP status codes. Input
// errors are the client's fault (400); runtime errors split by cause:
// saturation asks the client to back off (429), an expired deadline is a
// timeout (504), the client's own cancellation is 499, a closed server is
// 503, and an engine abort (a worker panic) is the only 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, errs.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, errs.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, errs.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, errs.ErrBadInput):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the JSON error body with the taxonomy-mapped status.
// Backpressure responses carry Retry-After so well-behaved clients pace
// themselves instead of hammering a saturated queue.
func writeError(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// handleLabel decodes the posted PGM, runs it through Do, and encodes the
// result. The request's TotalNS spans handler entry to run completion —
// response encoding is excluded on purpose, so a slow reader cannot dilute
// the phase-coverage property of the metrics document.
func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := obs.NewRecorder()
	q := r.URL.Query()

	job := Job{Rec: rec, Start: start, Name: "upload"}
	switch q.Get("mode") {
	case "", "binary":
		job.Mode = seq.Binary
	case "grey":
		job.Mode = seq.Grey
	default:
		writeError(w, errs.Bad("serve.label", "unknown mode %q (want binary or grey)", q.Get("mode")))
		return
	}
	switch q.Get("conn") {
	case "", "8":
		job.Conn = image.Conn8
	case "4":
		job.Conn = image.Conn4
	default:
		writeError(w, errs.Bad("serve.label", "unknown connectivity %q (want 4 or 8)", q.Get("conn")))
		return
	}
	out := q.Get("out")
	if out == "" {
		out = "json"
	}
	if out != "json" && out != "pgm" {
		writeError(w, errs.Bad("serve.label", "unknown output %q (want json or pgm)", out))
		return
	}
	// An out=pgm body has no place for a census, so none is computed.
	job.Census = out == "json" && q.Get("census") == "1"
	wantLabels := q.Get("labels") == "1"

	ctx := r.Context()
	deadline := s.cfg.DefaultDeadline
	if ms := q.Get("deadline_ms"); ms != "" {
		// Parse as int64 and bound before multiplying: a huge value like
		// 9300000000000000000 would overflow Duration(v)*Millisecond to a
		// negative duration, silently disabling the deadline entirely.
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v <= 0 || v > math.MaxInt64/int64(time.Millisecond) {
			writeError(w, errs.Bad("serve.label", "bad deadline_ms %q", ms))
			return
		}
		deadline = time.Duration(v) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	t0 := rec.StartPhase()
	im, err := image.ReadPGM(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	rec.EndPhase("decode", "", t0)
	if err != nil {
		writeError(w, errs.Bad("serve.label", "decoding PGM body: %v", err))
		return
	}
	job.Image = im

	res, err := s.Do(ctx, job)
	if err != nil {
		writeError(w, err)
		return
	}

	if out == "pgm" {
		writeLabelPGM(w, res.Labels, res.Components)
		return
	}
	resp := LabelResponse{Components: res.Components, N: im.N, Census: res.Census}
	if wantLabels {
		resp.Labels = res.Labels.Lab
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// writeLabelPGM streams the labeling through image.LabelPGMWriter. More
// than 65535 components do not fit its 16-bit samples: the writer refuses
// them before a byte is written, and the request fails with 422.
func writeLabelPGM(w http.ResponseWriter, l *image.Labels, components int) {
	pw, err := image.NewLabelPGMWriter(w, l.N, l.N, int64(components))
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(
			"serve.label: %d components exceed the PGM 16-bit sample ceiling (65535); use out=json", components)})
		return
	}
	w.Header().Set("Content-Type", "image/x-portable-graymap")
	// Past its constructor the writer fails only when a write to the
	// client does: the client left, and nothing remains to report.
	if pw.WriteRows(l.Lab, nil) == nil {
		_ = pw.Close()
	}
}

// handleMetrics emits the MetricsDocs array as indented JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.MetricsDocs())
}

// handleHealthz runs the 16×16 round-trip; an unhealthy server answers
// 503 with the failure, so an orchestrator's probe sees why.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	w.Header().Set("Content-Type", "application/json")
	if err := s.Health(ctx); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unhealthy", "error": err.Error()})
		return
	}
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}
