package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"entangling/internal/trace"
	"entangling/internal/workload"
)

// This file is the trace-ingestion surface: POST /v1/traces accepts an
// ENTRACE1 or ChampSim payload, validates and converts it during the
// streaming decode (budget limits enforced mid-stream, so a gzip bomb
// or billion-record upload dies at the cap), and stores it
// content-addressed next to the checkpoints. Job specs then reference
// it as workload "trace:<id>" — the same sweep machinery (trace cache,
// checkpointing) runs it unmodified, because the
// content address flows through workload.Params into every identity
// hash.

// traceDoc is the JSON document for one stored trace.
type traceDoc struct {
	ID string `json:"id"`
	// Workload is the name a job spec uses to reference this trace.
	Workload     string `json:"workload"`
	Instructions uint64 `json:"instructions"`
	Bytes        int64  `json:"bytes"`
	Format       string `json:"format"`
	// Deduped marks an upload whose content was already stored.
	Deduped bool `json:"deduped,omitempty"`
}

func docFromInfo(info trace.TraceInfo, deduped bool) traceDoc {
	return traceDoc{
		ID:           info.ID,
		Workload:     traceWorkloadPrefix + info.ID,
		Instructions: info.Instructions,
		Bytes:        info.Bytes,
		Format:       info.Format,
		Deduped:      deduped,
	}
}

// handleTraceUpload ingests one trace body. ?format=champsim converts
// from ChampSim's 64-byte record format; the default expects ENTRACE1.
// Over-budget streams answer 413 naming the offending limit; malformed
// streams answer 400 with the typed decode error.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	st, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	if s.tstore == nil {
		reject(w, st, http.StatusServiceUnavailable, ReasonUnavailable,
			"trace storage is not configured on this server (set TraceDir)")
		return
	}
	if s.Draining() {
		reject(w, st, http.StatusServiceUnavailable, ReasonDraining, "server is draining")
		return
	}
	if st != nil {
		// The quota gate runs before a single body byte streams; the
		// charge lands after a successful ingest, so the worst
		// overshoot is one upload body (itself capped by
		// MaxTraceBytes), never an unbounded stream.
		if qerr := st.admitTraceBytes(); qerr != nil {
			s.stats.inc(&s.stats.quotaRejected)
			w.Header().Set("Retry-After", "60")
			writeErrorReason(w, http.StatusTooManyRequests, qerr.reason, "%s", qerr.msg)
			return
		}
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "entrace1", "champsim":
	default:
		s.stats.inc(&s.stats.tracesRejected)
		reject(w, st, http.StatusBadRequest, ReasonBadRequest,
			"unknown trace format %q (want entrace1 or champsim)", format)
		return
	}

	// Budget enforcement happens inside the streaming decode: the
	// instruction cap comes from the workload budget, the byte cap
	// from the transport limit. MaxBytesReader bounds what the client
	// may send at all; the decode limit bounds what it may expand to.
	lim := s.cfg.Budget.DecodeLimits(uint64(s.cfg.MaxTraceBytes))
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	info, deduped, err := s.tstore.Put(body, format, lim)
	if err != nil {
		s.stats.inc(&s.stats.tracesRejected)
		var limErr *trace.LimitError
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &limErr):
			reject(w, st, http.StatusRequestEntityTooLarge, ReasonTooLarge,
				"trace exceeds the server's %s limit of %d", limErr.What, limErr.Limit)
		case errors.As(err, &tooLarge):
			reject(w, st, http.StatusRequestEntityTooLarge, ReasonTooLarge,
				"trace body exceeds %d bytes", tooLarge.Limit)
		default:
			reject(w, st, http.StatusBadRequest, ReasonBadRequest, "%v", err)
		}
		return
	}

	// Idempotent re-upload: same content, same ID, 200 instead of 201.
	// Dedupe hits are free — the bytes were already stored (and
	// charged) once.
	status := http.StatusCreated
	if deduped {
		status = http.StatusOK
		s.stats.inc(&s.stats.tracesDeduped)
	} else {
		s.stats.inc(&s.stats.tracesUploaded)
		if st != nil {
			st.chargeTraceBytes(info.Bytes)
		}
		s.cfg.Logf("server: trace %s ingested (%s, %d instructions, %d bytes)",
			info.ID[:16], info.Format, info.Instructions, info.Bytes)
	}
	writeJSON(w, status, docFromInfo(info, deduped))
}

// handleTraceList lists stored traces.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	st, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	if s.tstore == nil {
		reject(w, st, http.StatusServiceUnavailable, ReasonUnavailable,
			"trace storage is not configured on this server (set TraceDir)")
		return
	}
	infos, err := s.tstore.List()
	if err != nil {
		writeErrorReason(w, http.StatusInternalServerError, ReasonInternal, "%v", err)
		return
	}
	docs := make([]traceDoc, 0, len(infos))
	for _, info := range infos {
		docs = append(docs, docFromInfo(info, false))
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []traceDoc `json:"traces"`
	}{docs})
}

// handleTraceStat returns one stored trace's metadata.
func (s *Server) handleTraceStat(w http.ResponseWriter, r *http.Request) {
	st, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	if s.tstore == nil {
		reject(w, st, http.StatusServiceUnavailable, ReasonUnavailable,
			"trace storage is not configured on this server (set TraceDir)")
		return
	}
	id := r.PathValue("id")
	info, err := s.tstore.Stat(id)
	if err != nil {
		reject(w, st, http.StatusNotFound, ReasonNotFound, "unknown trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, docFromInfo(info, false))
}

// resolveTraceWorkload is the traceResolver wired into job resolution:
// it maps "trace:<id>" to an executable Spec over the stored payload.
func (s *Server) resolveTraceWorkload(name string, traceLen uint64) (workload.Spec, error) {
	id := strings.TrimPrefix(name, traceWorkloadPrefix)
	if s.tstore == nil {
		return workload.Spec{}, fmt.Errorf("workload %q: trace storage is not configured on this server", name)
	}
	info, err := s.tstore.Stat(id)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("unknown trace %q (upload it via POST /v1/traces first)", id)
	}
	if traceLen > info.Instructions {
		return workload.Spec{}, fmt.Errorf("workload %q: warmup+measure of %d instructions exceeds the trace's %d",
			name, traceLen, info.Instructions)
	}
	tstore := s.tstore
	return workload.TraceSpec(name, info.ID, func() (io.ReadCloser, error) {
		return tstore.Open(info.ID)
	}), nil
}
