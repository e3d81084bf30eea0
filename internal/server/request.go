package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"entangling/internal/harness"
	"entangling/internal/workload"
)

// This file defines the job submission schema and its validation. A
// request names configurations and workloads from the server's vetted
// registries — the network API can describe only sweeps the repository
// could also run locally — and every workload is checked against the
// request-size budget before a single trace byte is allocated.

// JobRequest is the POST /v1/jobs payload: a {configurations x
// workloads} sweep over one (warmup, measure) window. Configuration
// and workload names resolve against harness.KnownConfigurations and
// the server's workload registry (CVP suite + CloudSuite names);
// order is preserved and significant — it fixes the row order of the
// exported metrics, and thereby the job's identity.
type JobRequest struct {
	Configurations []string `json:"configurations"`
	Workloads      []string `json:"workloads"`
	Warmup         uint64   `json:"warmup"`
	Measure        uint64   `json:"measure"`
}

// jobSpec is a fully resolved, validated request: the exact cells a
// job will run, plus the job's content-addressed identity.
type jobSpec struct {
	id      string
	req     JobRequest
	cfgs    []harness.Configuration
	specs   []workload.Spec
	warmup  uint64
	measure uint64
	// fingerprints[cfg.Name][spec.Name], precomputed once.
	fingerprints map[string]map[string]string
}

func (j *jobSpec) cellCount() int { return len(j.cfgs) * len(j.specs) }

// traceLen is the materialized stream length every cell of the job
// consumes.
func (j *jobSpec) traceLen() uint64 { return j.warmup + j.measure }

// registries bundles the server's name->definition tables.
type registries struct {
	cfgs  map[string]harness.Configuration
	specs map[string]workload.Spec
}

// newRegistries builds the lookup tables: every known configuration,
// and the CVP suite (perCategory workloads per category) plus the
// CloudSuite and adversarial workloads.
func newRegistries(perCategory int) *registries {
	r := &registries{
		cfgs:  make(map[string]harness.Configuration),
		specs: make(map[string]workload.Spec),
	}
	for _, c := range harness.KnownConfigurations() {
		r.cfgs[c.Name] = c
	}
	for _, s := range workload.CVPSuite(perCategory) {
		r.specs[s.Name] = s
	}
	for _, s := range workload.CloudSuite() {
		r.specs[s.Name] = s
	}
	for _, s := range workload.AdversarialSuite() {
		r.specs[s.Name] = s
	}
	return r
}

// traceWorkloadPrefix marks workload names that reference an uploaded
// trace by content address instead of a registry preset.
const traceWorkloadPrefix = "trace:"

// traceResolver looks an uploaded trace up by the "trace:<id>" name a
// job spec used, returning its executable Spec. traceLen is the stream
// length the job's cells will consume, so the resolver can reject
// windows longer than the stored trace up front.
type traceResolver func(name string, traceLen uint64) (workload.Spec, error)

// parseJobRequest decodes and structurally validates a submission
// body. Unknown fields are rejected (a typoed field must not silently
// become a default), and the reader is expected to be wrapped in
// http.MaxBytesReader by the caller.
func parseJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("parsing job request: %w", err)
	}
	// A second document in the body is a malformed request, not data.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return JobRequest{}, fmt.Errorf("job request: trailing data after JSON document")
	}
	return req, nil
}

// resolve validates the request against the registries and the cell
// budget, and returns the executable jobSpec. traces resolves
// "trace:<id>" workload names (nil rejects them).
func (r *registries) resolve(req JobRequest, budget workload.Budget, maxCells int, traces traceResolver) (*jobSpec, error) {
	if len(req.Configurations) == 0 {
		return nil, fmt.Errorf("job request: no configurations")
	}
	if len(req.Workloads) == 0 {
		return nil, fmt.Errorf("job request: no workloads")
	}
	if req.Measure == 0 {
		return nil, fmt.Errorf("job request: measure window must be positive")
	}
	if cells := len(req.Configurations) * len(req.Workloads); maxCells > 0 && cells > maxCells {
		return nil, fmt.Errorf("job request: %d cells exceed the per-job limit of %d", cells, maxCells)
	}

	js := &jobSpec{
		req:          req,
		warmup:       req.Warmup,
		measure:      req.Measure,
		fingerprints: make(map[string]map[string]string, len(req.Configurations)),
	}
	seenCfg := make(map[string]bool, len(req.Configurations))
	for _, name := range req.Configurations {
		if seenCfg[name] {
			return nil, fmt.Errorf("job request: duplicate configuration %q", name)
		}
		seenCfg[name] = true
		c, ok := r.cfgs[name]
		if !ok {
			return nil, fmt.Errorf("job request: unknown configuration %q", name)
		}
		js.cfgs = append(js.cfgs, c)
	}
	seenWl := make(map[string]bool, len(req.Workloads))
	for _, name := range req.Workloads {
		if seenWl[name] {
			return nil, fmt.Errorf("job request: duplicate workload %q", name)
		}
		seenWl[name] = true
		var s workload.Spec
		if strings.HasPrefix(name, traceWorkloadPrefix) {
			if traces == nil {
				return nil, fmt.Errorf("job request: workload %q: trace workloads are not available on this server", name)
			}
			var err error
			if s, err = traces(name, js.traceLen()); err != nil {
				return nil, fmt.Errorf("job request: %w", err)
			}
		} else {
			var ok bool
			if s, ok = r.specs[name]; !ok {
				return nil, fmt.Errorf("job request: unknown workload %q", name)
			}
		}
		if err := budget.Check(s, js.traceLen()); err != nil {
			return nil, fmt.Errorf("job request: %w", err)
		}
		js.specs = append(js.specs, s)
	}
	for _, c := range js.cfgs {
		per := make(map[string]string, len(js.specs))
		for _, s := range js.specs {
			per[s.Name] = harness.CellFingerprint(c, s, js.warmup, js.measure)
		}
		js.fingerprints[c.Name] = per
	}
	js.id = js.computeID()
	return js, nil
}

// computeID derives the job's content address: a hash over the
// windows and every cell fingerprint in request order. Two requests
// describing the same simulation work share an ID — that identity is
// what makes duplicate submission a cache hit rather than a second
// sweep — while any semantic difference separates them.
func (j *jobSpec) computeID() string {
	h := sha256.New()
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], j.warmup)
	h.Write(w[:])
	binary.LittleEndian.PutUint64(w[:], j.measure)
	h.Write(w[:])
	for _, c := range j.cfgs {
		for _, s := range j.specs {
			io.WriteString(h, j.fingerprints[c.Name][s.Name])
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
