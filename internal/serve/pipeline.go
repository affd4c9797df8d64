package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/parc"
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
//
// Each cache holds a fact no other cache holds; the server's response-byte
// cache is the sixth. An annotation is one fact that two endpoints render:
// each builds its own response from the shared result. A vet finding list
// is cached only as the response bytes it becomes.
type evaluator struct {
	// programs: digest of the submitted source's token stream
	// (parc.Digest) → *ProgramInfo. Whitespace and comments do not enter
	// the key, so copies of one program that differ only in them share an
	// entry, and padding a submission costs no retained memory. The
	// ProgramInfo (and every downstream key) is content-addressed on the
	// canonical form.
	programs *lruCache
	// traces: (program hash, machine) → *trace.Trace, shared by both
	// annotation styles and both prefetch settings; inferences: the same key
	// → *staticanno.Result, the trace /v1/static infers instead.
	traces, inferences *lruCache
	// annotations: (program hash, trace digest, core.Options) →
	// *core.Result. The key names what the annotation reads, not who
	// asked, so /v1/annotate and /v1/static share one result whenever
	// inference reproduces the simulated trace.
	annotations *lruCache
	// sims: snapshot ID, itself content-addressed on (program hash,
	// machine) → *SimResult, snapshot bytes included; /v1/snapshot/{id}
	// reads it directly.
	sims *lruCache

	flight  *flightGroup
	pool    *pool
	metrics *obs.Metrics

	// slow, when non-nil, runs inside every heavy phase execution; tests
	// use it to hold computations open while probing concurrency behaviour.
	slow func()
}

// compute is a prepared request's computation of its response.
type compute[R any] func(context.Context) (R, error)

func (e *evaluator) count(name string) {
	if e.metrics != nil {
		e.metrics.Inc(name)
	}
}

// lookup reads key from c, counting the hit or the miss.
func (e *evaluator) lookup(c *lruCache, key string) (any, bool) {
	v, ok := c.get(key)
	if ok {
		e.count(c.hits)
	} else {
		e.count(c.misses)
	}
	return v, ok
}

// cached answers key from c, or runs fn under a singleflight whose leader
// publishes the value into c before it releases its followers. The
// disposition is "hit", "miss" (this caller ran fn) or "flight" (it shared
// another caller's run), as X-Cachier-Cache reports it. fn runs under its
// leader's context, so a follower whose flight ended because the leader was
// cancelled or timed out tries again while its own context is live, leading
// a new flight or joining one: no request fails on another's deadline.
// Errors are never cached. With no cache (the library path) fn just runs.
func (e *evaluator) cached(ctx context.Context, c *lruCache, key string, fn compute[any]) (any, string, error) {
	if c == nil {
		v, err := fn(ctx)
		return v, "miss", err
	}
	if v, ok := e.lookup(c, key); ok {
		return v, "hit", nil
	}
	for {
		v, shared, err := e.flight.do(cacheKey(c.label, key), func() (any, error) {
			v, err := fn(ctx)
			if err == nil && c.put(key, v) {
				e.count(c.evictions)
			}
			return v, err
		})
		if !shared {
			return v, "miss", err
		}
		e.count("singleflight_shared_total")
		leaderGaveUp := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if !leaderGaveUp || ctx.Err() != nil {
			return v, "flight", err
		}
	}
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
// queued, and counts it on counter, the phase's metric name in full. A
// panic in the execution is contained.
func (e *evaluator) heavy(ctx context.Context, counter, hash string, fn func() (any, error)) (v any, err error) {
	defer contain(hash, &err)
	if e.pool != nil {
		if err := e.pool.acquire(ctx); err != nil {
			return nil, err
		}
		defer e.pool.release()
	}
	e.count(counter)
	if e.slow != nil {
		e.slow()
	}
	return fn()
}

// program parses, checks, and canonicalizes src (cached). The key is the
// digest of src's token stream, so a copy that differs only in whitespace
// and comments hits (DESIGN.md §10). Canonicalisation holds no worker and
// is never cancelled.
func (e *evaluator) program(src string) (*ProgramInfo, error) {
	canonical := func(context.Context) (any, error) {
		pi, err := CanonicalProgram(src)
		if err != nil {
			return nil, badRequest(err)
		}
		return pi, nil
	}
	var v any
	var how string
	sum, err := parc.Digest(src)
	if err == nil {
		v, how, err = e.cached(context.Background(), e.programs, string(sum[:]), canonical)
	}
	// Text the lexer rejects has no key, and an error shared from another
	// text's flight quotes that text's line:col: both are canonicalised
	// here, so a 400 always quotes src's own.
	if err != nil && how != "miss" {
		v, err = canonical(context.Background())
	}
	if err != nil {
		return nil, err
	}
	return v.(*ProgramInfo), nil
}

// trace simulates the unannotated canonical program in trace mode on the
// given machine (cached).
func (e *evaluator) trace(ctx context.Context, pi *ProgramInfo, m MachineSpec) (*trace.Trace, error) {
	v, _, err := e.cached(ctx, e.traces, cacheKey(pi.Hash, m.key()), func(ctx context.Context) (any, error) {
		return e.heavy(ctx, `pipeline_executions_total{phase="trace"}`, pi.Hash, func() (any, error) {
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

// The prepare functions below are each endpoint's one request path: they
// validate and default a decoded request, canonicalise its program, and
// return its response-cache key and the computation of its response. The
// server's postHandler and the library's Eval* both call them.

// prepVet prepares /v1/vet: static race detection and CICO lint.
func (e *evaluator) prepVet(req *VetRequest) (string, compute[*VetResponse], error) {
	nodes := req.Nodes
	if nodes == 0 {
		nodes = sim.DefaultConfig().Nodes
	}
	if nodes < 1 || nodes > 1024 {
		return "", nil, &apiError{code: 400, msg: fmt.Sprintf("nodes %d out of range [1,1024]", nodes)}
	}
	pi, err := e.program(req.Source)
	if err != nil {
		return "", nil, err
	}
	return cacheKey(pi.Hash, fmt.Sprint(nodes)), func(ctx context.Context) (*VetResponse, error) {
		v, err := e.heavy(ctx, `pipeline_executions_total{phase="vet"}`, pi.Hash, func() (any, error) {
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
		if err != nil {
			return nil, err
		}
		return &VetResponse{ProgramHash: pi.Hash, Nodes: nodes, Findings: v.([]VetFinding)}, nil
	}, nil
}

// infer runs static inference on the machine (cached), shared by every
// style and prefetch setting. A fault its replay met is the program's, as
// it is for a simulation (422); anything else is the inferrer refusing the
// program (400).
func (e *evaluator) infer(ctx context.Context, pi *ProgramInfo, m MachineSpec) (*staticanno.Result, error) {
	v, _, err := e.cached(ctx, e.inferences, cacheKey(pi.Hash, m.key()), func(ctx context.Context) (any, error) {
		return e.heavy(ctx, `pipeline_executions_total{phase="static"}`, pi.Hash, func() (any, error) {
			inf, err := staticanno.Infer(pi.Prog, staticanno.Config{
				Nodes:     m.Nodes,
				CacheSize: m.CacheSize,
				Assoc:     m.Assoc,
				BlockSize: m.BlockSize,
				Protocol:  m.Protocol,
			})
			switch {
			case errors.Is(err, staticanno.ErrMachineFault):
				return nil, simFault("static inference", err)
			case err != nil:
				return nil, badRequest(fmt.Errorf("static inference: %w", err))
			}
			return inf, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*staticanno.Result), nil
}

// annotate runs Cachier on the program and trace tr (cached). The key is
// tr's content (trace.Digest), not the endpoint that asked, so /v1/static
// shares /v1/annotate's result whenever inference reproduced the simulated
// trace. Every field of opts is the rest of annotation's input: core reads
// the machine only through the trace and opts.CacheSize.
func (e *evaluator) annotate(ctx context.Context, pi *ProgramInfo, tr *trace.Trace, opts core.Options) (*core.Result, error) {
	var key string
	if e.annotations != nil {
		sum := tr.Digest()
		key = cacheKey(pi.Hash, string(sum[:]), fmt.Sprintf("%+v", opts))
	}
	v, _, err := e.cached(ctx, e.annotations, key, func(ctx context.Context) (any, error) {
		return e.heavy(ctx, `pipeline_executions_total{phase="annotate"}`, pi.Hash, func() (any, error) {
			res, err := core.AnnotateMulti(pi.Prog, []*trace.Trace{tr}, opts)
			if err != nil {
				return nil, fmt.Errorf("annotate: %w", err)
			}
			return res, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Result), nil
}

// prepAnnotate returns the prepare function of /v1/annotate (trace-driven)
// or, when static, of /v1/static (trace inferred, nothing simulated).
func (e *evaluator) prepAnnotate(static bool) func(*AnnotateRequest) (string, compute[*AnnotateResponse], error) {
	return func(req *AnnotateRequest) (string, compute[*AnnotateResponse], error) {
		style, styleName, err := parseStyle(req.Style)
		if err != nil {
			return "", nil, err
		}
		machine, err := req.Machine.resolved()
		if err != nil {
			return "", nil, err
		}
		pi, err := e.program(req.Source)
		if err != nil {
			return "", nil, err
		}
		key := cacheKey(pi.Hash, styleName, fmt.Sprintf("p%v", req.Prefetch), machine.key())
		return key, func(ctx context.Context) (*AnnotateResponse, error) {
			var (
				tr  *trace.Trace
				inf *staticanno.Result
				err error
			)
			if static {
				if inf, err = e.infer(ctx, pi, machine); err == nil {
					tr = inf.Trace
				}
			} else {
				tr, err = e.trace(ctx, pi, machine)
			}
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.Style = style
			opts.Prefetch = req.Prefetch
			opts.CacheSize = machine.CacheSize
			res, err := e.annotate(ctx, pi, tr, opts)
			if err != nil {
				return nil, err
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
		}, nil
	}
}

// prepSimulate prepares /v1/simulate: Source as given on every requested
// config. Each config is cached and pooled independently, so a batch fans
// out through the worker pool and repeated configs are near-free.
func (e *evaluator) prepSimulate(req *SimulateRequest) (string, compute[*SimulateResponse], error) {
	pi, err := e.program(req.Source)
	if err != nil {
		return "", nil, err
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = []MachineSpec{{}}
	}
	if len(configs) > 64 {
		return "", nil, &apiError{code: 400, msg: fmt.Sprintf("batch of %d configs exceeds the 64-config bound", len(configs))}
	}
	resolved := make([]MachineSpec, len(configs))
	keyParts := []string{pi.Hash}
	for i, c := range configs {
		if resolved[i], err = c.resolved(); err != nil {
			return "", nil, err
		}
		keyParts = append(keyParts, resolved[i].key())
	}
	return cacheKey(keyParts...), func(ctx context.Context) (*SimulateResponse, error) {
		results := make([]SimResult, len(resolved))
		errs := make([]error, len(resolved))
		run := func(i int, m MachineSpec) {
			// run is also the body of the fan-out goroutines below, where an
			// uncontained panic would end the process.
			defer contain(pi.Hash, &errs[i])
			id := contentID(pi.Hash, m.key())
			v, _, err := e.cached(ctx, e.sims, id, func(ctx context.Context) (any, error) {
				return e.heavy(ctx, `pipeline_executions_total{phase="simulate"}`, pi.Hash, func() (any, error) {
					return runSim(pi, m, id)
				})
			})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = *v.(*SimResult)
		}
		if e.pool == nil || len(resolved) == 1 {
			for i, m := range resolved {
				run(i, m)
			}
		} else {
			// Batched fan-out: each config takes its own worker-pool slot, so
			// one wide batch shares the machine with other requests instead of
			// monopolizing the handler.
			var wg sync.WaitGroup
			for i, m := range resolved {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(i, m)
				}()
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return &SimulateResponse{ProgramHash: pi.Hash, Results: results}, nil
	}, nil
}

// simFault reports a failed sim.Run as a 422: simulation faults (a runtime
// error in the program, deadlock, an unlock fault, an exhausted cycle
// budget) are properties of the submitted program, not of the server, on
// whichever endpoint ran the simulation. Errors are never cached.
func simFault(phase string, err error) error {
	return &apiError{code: 422, msg: fmt.Sprintf("%s: %v", phase, err)}
}

// snapshotBody is a simulation's stats snapshot. Its JSON is produced on
// the first read, by the first /v1/snapshot/{id} request or EvalSimulate,
// and the Snapshot is then dropped.
type snapshotBody struct {
	once sync.Once
	snap *obs.Snapshot
	data []byte
}

// bytes returns the snapshot's canonical JSON. A Snapshot holds no float,
// map or interface, so marshalling it cannot fail
// (TestSnapshotMarshalCannotFail).
func (b *snapshotBody) bytes() []byte {
	b.once.Do(func() {
		b.data, _ = b.snap.MarshalIndentJSON()
		b.snap = nil
	})
	return b.data
}

// runSim executes one simulation with the observability recorder attached
// and packages the deterministic result with its snapshot.
func runSim(pi *ProgramInfo, m MachineSpec, snapshotID string) (*SimResult, error) {
	cfg := m.simConfig(sim.ModePerf)
	cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
	res, err := sim.Run(pi.Prog, cfg)
	if err != nil {
		return nil, simFault("simulation", err)
	}
	return &SimResult{
		Config:     m,
		Cycles:     res.Cycles,
		Barriers:   res.Barriers,
		Engine:     res.Engine,
		Protocol:   res.Protocol,
		Stats:      res.Stats,
		Output:     res.Output,
		SnapshotID: snapshotID,
		snapshot:   &snapshotBody{snap: res.Snapshot},
	}, nil
}

// evaluate runs a prepared request on the library path.
func evaluate[R any](_ string, run compute[R], err error) (R, error) {
	if err != nil {
		var zero R
		return zero, err
	}
	return run(context.Background())
}

// EvalAnnotate computes /v1/annotate's response in process, uncached.
func EvalAnnotate(req *AnnotateRequest) (*AnnotateResponse, error) {
	return evaluate((&evaluator{}).prepAnnotate(false)(req))
}

// EvalStatic computes /v1/static's response in process, uncached.
func EvalStatic(req *AnnotateRequest) (*AnnotateResponse, error) {
	return evaluate((&evaluator{}).prepAnnotate(true)(req))
}

// EvalVet computes /v1/vet's response in process, uncached.
func EvalVet(req *VetRequest) (*VetResponse, error) {
	return evaluate((&evaluator{}).prepVet(req))
}

// EvalSimulate computes /v1/simulate's response in process, uncached, and
// returns the snapshot bodies a server would serve from /v1/snapshot/{id}.
func EvalSimulate(req *SimulateRequest) (*SimulateResponse, map[string][]byte, error) {
	resp, err := evaluate((&evaluator{}).prepSimulate(req))
	if err != nil {
		return nil, nil, err
	}
	snaps := make(map[string][]byte, len(resp.Results))
	for _, r := range resp.Results {
		snaps[r.SnapshotID] = r.snapshot.bytes()
	}
	return resp, snaps, nil
}
