package dir1sw

import (
	"cachier/internal/cache"
	"cachier/internal/coherence"
	"cachier/internal/obs"
)

// The memory-system machinery (caches, directory storage, directive
// surface, self-checks) lives in internal/coherence; this file re-exports
// the shared types under their historical names and keeps the
// dir1sw.Config/New construction surface, so code that only ever wants the
// paper's protocol does not need to assemble the two halves itself.

// System is the shared memory system (see coherence.System).
type System = coherence.System

// Costs parameterizes the cycle cost model (see coherence.Costs).
type Costs = coherence.Costs

// Stats aggregates protocol activity (see coherence.Stats).
type Stats = coherence.Stats

// Result reports the outcome of one access or directive.
type Result = coherence.Result

// AccessKind classifies the outcome of a shared-memory access.
type AccessKind = coherence.AccessKind

// Access outcomes.
const (
	Hit        = coherence.Hit
	ReadMiss   = coherence.ReadMiss
	WriteMiss  = coherence.WriteMiss
	WriteFault = coherence.WriteFault
)

// DefaultCosts returns the model's default cost parameters.
func DefaultCosts() Costs { return coherence.DefaultCosts() }

// Config configures a Dir1SW System: the shared machinery's options.
type Config struct {
	Nodes     int
	CacheSize int
	Assoc     int
	BlockSize int
	Costs     Costs

	// PostStore emulates the KSR-1's post-store check-in (see
	// coherence.Config.PostStore).
	PostStore bool

	// AddrSpace, Probe, Recorder: see coherence.Config.
	AddrSpace uint64
	Probe     bool
	Recorder  *obs.Recorder
}

// DefaultConfig is the paper's evaluated machine: 32 nodes, 256 KB 4-way
// set-associative caches, 32-byte blocks (Section 6).
func DefaultConfig() Config {
	return Config{
		Nodes:     32,
		CacheSize: cache.DefaultSize,
		Assoc:     cache.DefaultAssoc,
		BlockSize: cache.DefaultBlockSize,
		Costs:     DefaultCosts(),
	}
}

// New builds a System running Dir1SW.
func New(cfg Config) (*System, error) {
	return coherence.New(coherence.Config{
		Nodes:     cfg.Nodes,
		CacheSize: cfg.CacheSize,
		Assoc:     cfg.Assoc,
		BlockSize: cfg.BlockSize,
		Costs:     cfg.Costs,
		PostStore: cfg.PostStore,
		AddrSpace: cfg.AddrSpace,
		Probe:     cfg.Probe,
		Recorder:  cfg.Recorder,
	}, Protocol())
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
