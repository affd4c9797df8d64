package serve

import (
	"context"
	"fmt"

	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
	"cachier/internal/trace"
	"cachier/internal/vet"
)

// evaluator runs the pipeline phases with optional content-addressed
// caches, singleflight collapsing, and a worker pool. The zero evaluator
// (no caches, no pool) is the pure in-process library path behind Eval*;
// the server's evaluator shares the same code with everything switched on,
// which is what guarantees cached and cold responses are byte-identical to
// the library result.
type evaluator struct {
	// programs: raw source string → *ProgramInfo. Keyed by the submitted
	// text, but the ProgramInfo (and every downstream key) is content-
	// addressed on the canonical form, so differently-formatted copies of
	// one program converge on the same downstream entries.
	programs *lruCache
	// vets: (program hash, nodes) → []VetFinding.
	vets *lruCache
	// traces: (program hash, machine) → *trace.Trace.
	traces *lruCache
	// annos: (program hash, options) → *AnnotateResponse.
	annos *lruCache
	// sims: (program hash, config) → *simDoc (result + snapshot bytes).
	sims *lruCache
	// snaps: snapshot ID → snapshot JSON bytes, served by /v1/snapshot.
	snaps *lruCache

	flight  *flightGroup
	pool    *pool
	metrics *obs.Metrics

	// slow, when non-nil, runs inside every heavy phase execution; tests
	// use it to hold computations open while probing concurrency behaviour.
	slow func()
}

// simDoc is a cached simulation: the structured result plus its snapshot's
// JSON bytes.
type simDoc struct {
	res  SimResult
	snap []byte
}

func (e *evaluator) count(name string) {
	if e.metrics != nil {
		e.metrics.Inc(name)
	}
}

// cached wraps one phase: LRU lookup, then singleflight on a miss, with the
// leader publishing into the cache. kind labels the metrics.
func (e *evaluator) cached(kind, key string, fn func() (any, error)) (any, error) {
	if e.programs == nil { // library path: no caches at all
		return fn()
	}
	var c *lruCache
	switch kind {
	case "program":
		c = e.programs
	case "vet":
		c = e.vets
	case "trace":
		c = e.traces
	case "annotate":
		c = e.annos
	case "simulate":
		c = e.sims
	default:
		return fn()
	}
	if v, ok := c.get(key); ok {
		e.count(fmt.Sprintf("cache_hits_total{cache=%q}", kind))
		return v, nil
	}
	e.count(fmt.Sprintf("cache_misses_total{cache=%q}", kind))
	v, shared, err := e.flight.do(cacheKey(kind, key), fn)
	if shared {
		e.count("singleflight_shared_total")
	}
	if err == nil && !shared {
		c.put(key, v)
	}
	return v, err
}

// contain, deferred, turns a panic under it into a 500 that names the
// program, so that one program the pipeline has a bug on costs its own
// requests an error and not the daemon a handler, a flight key or its life.
func contain(hash string, err *error) {
	if r := recover(); r != nil {
		*err = &apiError{code: 500, msg: fmt.Sprintf("internal error on program %s: %v", hash, r)}
	}
}

// heavy runs one expensive pipeline execution on program hash under the
// worker pool (when there is one), honouring the request deadline while
// queued. A panic in the execution is contained.
func (e *evaluator) heavy(ctx context.Context, phase, hash string, fn func() (any, error)) (v any, err error) {
	defer contain(hash, &err)
	if e.pool != nil {
		if err := e.pool.acquire(ctx); err != nil {
			return nil, err
		}
		defer e.pool.release()
	}
	e.count(fmt.Sprintf("pipeline_executions_total{phase=%q}", phase))
	if e.slow != nil {
		e.slow()
	}
	return fn()
}

// program parses, checks, and canonicalizes src (cached).
func (e *evaluator) program(src string) (*ProgramInfo, error) {
	v, err := e.cached("program", src, func() (any, error) {
		pi, err := CanonicalProgram(src)
		if err != nil {
			return nil, badRequest(err)
		}
		return pi, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ProgramInfo), nil
}

// vet runs the static race detector and CICO lint (cached).
func (e *evaluator) vet(ctx context.Context, pi *ProgramInfo, nodes int) ([]VetFinding, error) {
	v, err := e.cached("vet", cacheKey(pi.Hash, fmt.Sprint(nodes)), func() (any, error) {
		return e.heavy(ctx, "vet", pi.Hash, func() (any, error) {
			rep := vet.Analyze(pi.Prog, vet.Options{Nprocs: nodes})
			out := make([]VetFinding, 0, len(rep.Findings))
			for _, f := range rep.Findings {
				vf := VetFinding{
					File:     f.Pos.File,
					Line:     f.Pos.Line,
					Col:      f.Pos.Col,
					Severity: f.Severity.String(),
					Kind:     f.Rule,
					Var:      f.Var,
					Epoch:    f.Epoch,
					Msg:      f.Msg,
				}
				if f.Nodes[1] >= 0 {
					vf.Nodes = []int{f.Nodes[0], f.Nodes[1]}
				} else if f.Nodes[0] >= 0 {
					vf.Nodes = []int{f.Nodes[0]}
				}
				out = append(out, vf)
			}
			return out, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return v.([]VetFinding), nil
}

// trace simulates the unannotated canonical program in trace mode on the
// given machine (cached).
func (e *evaluator) trace(ctx context.Context, pi *ProgramInfo, m MachineSpec) (*trace.Trace, error) {
	v, err := e.cached("trace", cacheKey(pi.Hash, m.key()), func() (any, error) {
		return e.heavy(ctx, "trace", pi.Hash, func() (any, error) {
			res, err := sim.Run(pi.Prog, m.simConfig(sim.ModeTrace))
			if err != nil {
				return nil, simFault("tracing", err)
			}
			return res.Trace, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// annotate runs the full annotation pipeline, trace-driven or static
// (cached on the canonical program + all options).
func (e *evaluator) annotate(ctx context.Context, req *AnnotateRequest, static bool) (*AnnotateResponse, error) {
	style, styleName, err := parseStyle(req.Style)
	if err != nil {
		return nil, err
	}
	machine, err := req.Machine.resolved()
	if err != nil {
		return nil, err
	}
	pi, err := e.program(req.Source)
	if err != nil {
		return nil, err
	}
	key := cacheKey(pi.Hash, styleName, fmt.Sprintf("p%v.s%v", req.Prefetch, static), machine.key())
	v, err := e.cached("annotate", key, func() (any, error) {
		var tr *trace.Trace
		var inf *staticanno.Result
		if static {
			v, err := e.heavy(ctx, "static", pi.Hash, func() (any, error) {
				cfg := staticanno.Config{
					Nodes:     machine.Nodes,
					CacheSize: machine.CacheSize,
					Assoc:     machine.Assoc,
					BlockSize: machine.BlockSize,
				}
				inf, err := staticanno.Infer(pi.Prog, cfg)
				if err != nil {
					return nil, badRequest(fmt.Errorf("static inference: %w", err))
				}
				return inf, nil
			})
			if err != nil {
				return nil, err
			}
			inf = v.(*staticanno.Result)
			tr = inf.Trace
		} else {
			tr, err = e.trace(ctx, pi, machine)
			if err != nil {
				return nil, err
			}
		}
		return e.heavy(ctx, "annotate", pi.Hash, func() (any, error) {
			opts := core.DefaultOptions()
			opts.Style = style
			opts.Prefetch = req.Prefetch
			opts.CacheSize = machine.CacheSize
			res, err := core.AnnotateMulti(pi.Prog, []*trace.Trace{tr}, opts)
			if err != nil {
				return nil, fmt.Errorf("annotate: %w", err)
			}
			resp := &AnnotateResponse{
				ProgramHash: pi.Hash,
				Style:       styleName,
				Prefetch:    req.Prefetch,
				Static:      static,
				Annotated:   res.Source,
				Annotations: res.Annotations,
				Cost: CostSummary{
					CoX:       res.Cost.TotalCoX,
					CoS:       res.Cost.TotalCoS,
					CI:        res.Cost.TotalCI,
					ModelCost: res.Cost.ModelCost,
				},
			}
			for _, r := range res.Reports {
				cr := ConflictReport{Kind: r.Kind, Var: r.Var, Epoch: r.Epoch, Addrs: r.Addrs}
				if r.Pos.IsValid() {
					cr.Pos = r.Pos.String()
				}
				resp.Reports = append(resp.Reports, cr)
			}
			if inf != nil {
				exact := inf.Exact
				resp.Exact = &exact
				resp.Notes = inf.Notes
			}
			return resp, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*AnnotateResponse), nil
}

// simulate runs Source as given on every requested config. Each config is
// cached and pooled independently, so a batch fans out through the worker
// pool and repeated configs are near-free.
func (e *evaluator) simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, map[string][]byte, error) {
	pi, err := e.program(req.Source)
	if err != nil {
		return nil, nil, err
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = []MachineSpec{{}}
	}
	if len(configs) > 64 {
		return nil, nil, &apiError{code: 400, msg: fmt.Sprintf("batch of %d configs exceeds the 64-config bound", len(configs))}
	}
	resolved := make([]MachineSpec, len(configs))
	for i, c := range configs {
		if resolved[i], err = c.resolved(); err != nil {
			return nil, nil, err
		}
	}

	docs := make([]*simDoc, len(resolved))
	errs := make([]error, len(resolved))
	run := func(i int, m MachineSpec) {
		// run is also the body of the fan-out goroutines below, where an
		// uncontained panic would end the process.
		defer contain(pi.Hash, &errs[i])
		v, err := e.cached("simulate", cacheKey(pi.Hash, m.key()), func() (any, error) {
			return e.heavy(ctx, "simulate", pi.Hash, func() (any, error) {
				return e.runSim(pi, m)
			})
		})
		if err != nil {
			errs[i] = err
			return
		}
		docs[i] = v.(*simDoc)
	}
	if e.pool == nil || len(resolved) == 1 {
		for i, m := range resolved {
			run(i, m)
		}
	} else {
		// Batched fan-out: each config takes its own worker-pool slot, so
		// one wide batch shares the machine with other requests instead of
		// monopolizing the handler.
		done := make(chan struct{}, len(resolved))
		for i, m := range resolved {
			go func(i int, m MachineSpec) {
				run(i, m)
				done <- struct{}{}
			}(i, m)
		}
		for range resolved {
			<-done
		}
	}
	results := make([]SimResult, len(resolved))
	snaps := make(map[string][]byte, len(resolved))
	for i, doc := range docs {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		results[i] = doc.res
		snaps[doc.res.SnapshotID] = doc.snap
		if e.snaps != nil {
			// Re-publish on every hit: the snapshot may have been evicted
			// independently of the cached sim result.
			e.snaps.put(doc.res.SnapshotID, doc.snap)
		}
	}
	return &SimulateResponse{ProgramHash: pi.Hash, Results: results}, snaps, nil
}

// simFault reports a failed sim.Run as a 422: simulation faults (a runtime
// error in the program, deadlock, an unlock fault, an exhausted cycle
// budget) are properties of the submitted program, not of the server, on
// whichever endpoint ran the simulation. Errors are never cached.
func simFault(phase string, err error) error {
	return &apiError{code: 422, msg: fmt.Sprintf("%s: %v", phase, err)}
}

// runSim executes one simulation with the observability recorder attached
// and packages the deterministic result + snapshot bytes.
func (e *evaluator) runSim(pi *ProgramInfo, m MachineSpec) (*simDoc, error) {
	cfg := m.simConfig(sim.ModePerf)
	cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
	res, err := sim.Run(pi.Prog, cfg)
	if err != nil {
		return nil, simFault("simulation", err)
	}
	snap, err := res.Snapshot.MarshalIndentJSON()
	if err != nil {
		return nil, fmt.Errorf("marshal snapshot: %w", err)
	}
	return &simDoc{
		res: SimResult{
			Config:     m,
			Cycles:     res.Cycles,
			Barriers:   res.Barriers,
			Engine:     res.Engine,
			Protocol:   res.Protocol,
			Stats:      res.Stats,
			Output:     res.Output,
			SnapshotID: contentID(pi.Hash, m.key()),
		},
		snap: snap,
	}, nil
}

// EvalAnnotate computes /v1/annotate's response in process, uncached.
func EvalAnnotate(req *AnnotateRequest) (*AnnotateResponse, error) {
	return (&evaluator{}).annotate(context.Background(), req, false)
}

// EvalStatic computes /v1/static's response in process, uncached.
func EvalStatic(req *AnnotateRequest) (*AnnotateResponse, error) {
	return (&evaluator{}).annotate(context.Background(), req, true)
}

// EvalVet computes /v1/vet's response in process, uncached.
func EvalVet(req *VetRequest) (*VetResponse, error) {
	nodes := req.Nodes
	if nodes == 0 {
		nodes = sim.DefaultConfig().Nodes
	}
	if nodes < 1 || nodes > 1024 {
		return nil, &apiError{code: 400, msg: fmt.Sprintf("nodes %d out of range [1,1024]", nodes)}
	}
	e := &evaluator{}
	pi, err := e.program(req.Source)
	if err != nil {
		return nil, err
	}
	fs, err := e.vet(context.Background(), pi, nodes)
	if err != nil {
		return nil, err
	}
	return &VetResponse{ProgramHash: pi.Hash, Nodes: nodes, Findings: fs}, nil
}

// EvalSimulate computes /v1/simulate's response in process, uncached, and
// returns the snapshot bodies a server would serve from /v1/snapshot/{id}.
func EvalSimulate(req *SimulateRequest) (*SimulateResponse, map[string][]byte, error) {
	return (&evaluator{}).simulate(context.Background(), req)
}
