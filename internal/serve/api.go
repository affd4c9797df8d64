// Package serve wraps the whole Cachier pipeline — parse → vet → trace →
// annotate → simulate → stats — in a long-running HTTP service:
//
//	POST /v1/annotate      trace-driven CICO annotation of a ParC program
//	POST /v1/static        trace-free (statically inferred) annotation
//	POST /v1/vet           static race detection + CICO lint
//	POST /v1/simulate      simulation of the program as given, batched over
//	                       one or more machine configs
//	GET  /v1/snapshot/{id} structured stats snapshot of a simulate result
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          Prometheus-style text metrics
//
// The pipeline itself is deterministic, so every response is a pure
// function of the request. The server exploits that with content-addressed
// caching, each fact in one place: the response bytes, the source's
// canonical AST, the trace of (program, machine), and the simulation of
// (program, machine) with its snapshot. Around the caches sit singleflight
// collapsing of concurrent identical submissions, a bounded worker pool
// with per-request deadlines, and explicit backpressure (429 + Retry-After
// at the queue bound). Cached responses are byte-identical to cold ones —
// the cache status travels in the X-Cachier-Cache header, never in the
// body.
//
// The Eval* functions are the in-process library path: they run each
// endpoint's one request path, the server's own, with no caches or pools,
// and are what cmd/cachierload replays the conformance corpus against.
package serve

import (
	"encoding/json"
	"fmt"

	"cachier/internal/cache"
	"cachier/internal/coherence"
	"cachier/internal/core"
	"cachier/internal/sim"
)

// MachineSpec selects the simulated machine for a request. Zero values mean
// the simulator's defaults (32 nodes, 256 KB 4-way caches, 32-byte blocks,
// Dir1SW).
type MachineSpec struct {
	Nodes     int    `json:"nodes,omitempty"`
	CacheSize int    `json:"cache_size,omitempty"`
	Assoc     int    `json:"assoc,omitempty"`
	BlockSize int    `json:"block_size,omitempty"`
	Protocol  string `json:"protocol,omitempty"` // "dir1sw", "dirnnb[:n]", "dirnb[:n]"
}

// maxMachineLines bounds the cache lines of one machine (nodes ×
// cache_size / block_size): the paper's machine has 2^18, a 1024-node
// machine of default caches 2^23.
const maxMachineLines = 1 << 24

// resolved fills defaults and validates the spec; the returned spec is
// fully explicit, so its JSON form is a canonical cache-key component.
func (m MachineSpec) resolved() (MachineSpec, error) {
	d := sim.DefaultConfig()
	if m.Nodes == 0 {
		m.Nodes = d.Nodes
	}
	if m.CacheSize == 0 {
		m.CacheSize = d.CacheSize
	}
	if m.Assoc == 0 {
		m.Assoc = d.Assoc
	}
	if m.BlockSize == 0 {
		m.BlockSize = d.BlockSize
	}
	if m.Nodes < 1 || m.Nodes > 1024 {
		return m, &apiError{code: 400, msg: fmt.Sprintf("nodes %d out of range [1,1024]", m.Nodes)}
	}
	if m.CacheSize < m.BlockSize || m.BlockSize < 8 {
		return m, &apiError{code: 400, msg: "cache_size/block_size out of range"}
	}
	// The caches and the memory layout refuse the same geometries in
	// simulation; refused here, they are the client's error before any
	// work is queued.
	if err := cache.CheckGeometry(m.CacheSize, m.Assoc, m.BlockSize); err != nil {
		return m, &apiError{code: 400, msg: err.Error()}
	}
	// cache.New builds every way of each set it reaches, so a valid
	// geometry can still ask for gigabytes.
	if m.CacheSize/m.BlockSize > maxMachineLines/m.Nodes {
		return m, &apiError{code: 400, msg: fmt.Sprintf("%d caches of %d lines exceed %d cache lines per machine",
			m.Nodes, m.CacheSize/m.BlockSize, maxMachineLines)}
	}
	spec, err := coherence.ParseSpec(m.Protocol)
	if err != nil {
		return m, &apiError{code: 400, msg: err.Error()}
	}
	m.Protocol = spec.String()
	return m, nil
}

// simCycleBudget is the simulated time, in node-cycles, one submitted
// program may use per run: about 45 times the largest Figure 6 run (Tomcatv,
// 3.0 M cycles on 32 nodes) and seconds of host time for a program that
// spins, after which the request fails with 422 instead of holding a worker.
const simCycleBudget = 1 << 32

// simConfig builds the simulator config for a resolved spec.
func (m MachineSpec) simConfig(mode sim.Mode) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.CycleBudget = simCycleBudget
	cfg.Nodes = m.Nodes
	cfg.CacheSize = m.CacheSize
	cfg.Assoc = m.Assoc
	cfg.BlockSize = m.BlockSize
	cfg.Protocol = m.Protocol
	cfg.Mode = mode
	return cfg
}

// key is the spec's canonical cache-key form (the spec must be resolved).
func (m MachineSpec) key() string {
	return fmt.Sprintf("n%d.c%d.a%d.b%d.%s", m.Nodes, m.CacheSize, m.Assoc, m.BlockSize, m.Protocol)
}

// AnnotateRequest asks for CICO annotation of Source. The same shape serves
// /v1/annotate (trace-driven: the program is traced on Machine, then
// annotated) and /v1/static (the trace is inferred statically; no
// simulation runs).
type AnnotateRequest struct {
	Source   string      `json:"source"`
	Style    string      `json:"style,omitempty"` // "performance" (default) or "programmer"
	Prefetch bool        `json:"prefetch,omitempty"`
	Machine  MachineSpec `json:"machine"`
}

// ConflictReport is one data race or false sharing flag from placement.
type ConflictReport struct {
	Kind  string `json:"kind"`
	Var   string `json:"var"`
	Pos   string `json:"pos,omitempty"`
	Epoch int    `json:"epoch"`
	Addrs int    `json:"addrs"`
}

// CostSummary is the CICO cost model's communication summary.
type CostSummary struct {
	CoX       uint64 `json:"co_x"`
	CoS       uint64 `json:"co_s"`
	CI        uint64 `json:"ci"`
	ModelCost uint64 `json:"model_cost"`
}

// AnnotateResponse is the annotated program plus placement metadata.
// Annotated is canonically formatted (the service canonicalizes Source
// before the pipeline; formatting-only changes to Source are cache hits).
type AnnotateResponse struct {
	ProgramHash string           `json:"program_hash"`
	Style       string           `json:"style"`
	Prefetch    bool             `json:"prefetch"`
	Static      bool             `json:"static"`
	Annotated   string           `json:"annotated"`
	Annotations int              `json:"annotations"`
	Reports     []ConflictReport `json:"reports,omitempty"`
	Cost        CostSummary      `json:"cost"`
	// Exact and Notes are set by /v1/static: Exact means the inferred
	// trace reconstructs the simulation's exactly, so placement matches
	// the trace-driven pipeline byte for byte; otherwise the annotations
	// cover a superset of the dynamic footprint (see internal/staticanno).
	Exact *bool    `json:"exact,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

// VetRequest asks for static race detection and CICO lint of Source.
type VetRequest struct {
	Source string `json:"source"`
	Nodes  int    `json:"nodes,omitempty"` // abstract machine size (default 32)
}

// VetFinding mirrors cmd/parcvet's JSON diagnostic schema.
type VetFinding struct {
	File     string `json:"file,omitempty"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Kind     string `json:"kind"`
	Var      string `json:"var,omitempty"`
	Epoch    int    `json:"epoch"`
	Nodes    []int  `json:"nodes,omitempty"`
	Msg      string `json:"msg"`
}

// VetResponse is the vet verdict; an empty Findings list means clean.
type VetResponse struct {
	ProgramHash string       `json:"program_hash"`
	Nodes       int          `json:"nodes"`
	Findings    []VetFinding `json:"findings"`
}

// SimulateRequest simulates Source exactly as given (CICO directives are
// honoured) on each config — the batched fan-out for one program × many
// machines/protocols. An empty Configs list means one default machine.
type SimulateRequest struct {
	Source  string        `json:"source"`
	Configs []MachineSpec `json:"configs,omitempty"`
}

// SimResult is one config's simulation outcome. Engine is provenance:
// which of the simulator's two engines ran it (sim.Result.Engine).
// SnapshotID content-addresses the run's structured stats snapshot for
// GET /v1/snapshot/{id}.
type SimResult struct {
	Config     MachineSpec     `json:"config"`
	Cycles     uint64          `json:"cycles"`
	Barriers   int             `json:"barriers"`
	Engine     string          `json:"engine"`
	Protocol   string          `json:"protocol"`
	Stats      coherence.Stats `json:"stats"`
	Output     []string        `json:"output,omitempty"`
	SnapshotID string          `json:"snapshot_id"`

	// snapshot is the body of /v1/snapshot/{SnapshotID}: it travels and is
	// cached with the result, never in the response.
	snapshot *snapshotBody
}

// SimulateResponse carries one result per requested config, in order.
type SimulateResponse struct {
	ProgramHash string      `json:"program_hash"`
	Results     []SimResult `json:"results"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status through the pipeline; anything else is a
// 500.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

// badRequest wraps a front-end diagnostic as a 400.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return &apiError{code: 400, msg: err.Error()}
}

// MarshalResponse renders a response body exactly as the server does:
// indented JSON with a trailing newline. cmd/cachierload marshals its
// in-process library results through this same function, so equivalence
// checks compare bytes, not structures.
func MarshalResponse(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// parseStyle maps the request's style string to core's enum.
func parseStyle(s string) (core.Style, string, error) {
	switch s {
	case "", "performance":
		return core.StylePerformance, "performance", nil
	case "programmer":
		return core.StyleProgrammer, "programmer", nil
	}
	return 0, "", &apiError{code: 400, msg: fmt.Sprintf("unknown style %q", s)}
}
