package dir1sw

import (
	"cachier/internal/cache"
	"cachier/internal/coherence"
	"cachier/internal/obs"
)

// The memory-system machinery (caches, directory storage, directive
// surface, self-checks) lives in internal/coherence, whose types callers
// name directly; this file keeps the dir1sw.Config/New construction
// surface, so code that only ever wants the paper's protocol does not need
// to assemble the two halves itself.

// Config configures a Dir1SW System: the shared machinery's options.
type Config struct {
	Nodes     int
	CacheSize int
	Assoc     int
	BlockSize int
	Costs     coherence.Costs

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
		Costs:     coherence.DefaultCosts(),
	}
}

// New builds a System running Dir1SW.
func New(cfg Config) (*coherence.System, error) {
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
func MustNew(cfg Config) *coherence.System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
