// Command cachierd serves the Cachier pipeline over HTTP: trace-driven and
// static CICO annotation, vetting, and batched simulation, with content-
// addressed caching and explicit backpressure (see internal/serve).
//
// Usage:
//
//	cachierd [-addr :8080] [-addr-file path] [-workers N] [-queue N]
//	         [-timeout 60s] [-cache-entries N] [-drain-timeout 30s]
//	         [-metrics-dump path] [-debug-addr 127.0.0.1:6060]
//
// The daemon runs until SIGTERM or SIGINT, then drains: new requests get
// 503, in-flight requests finish (bounded by -drain-timeout), the listener
// shuts down, and — when -metrics-dump is set — the final metrics snapshot
// is written as JSON so a supervisor can scrape the lifetime counters.
//
// -addr-file writes the listener's resolved address (useful with -addr
// 127.0.0.1:0 in test harnesses that need a race-free ephemeral port).
//
// -debug-addr, off by default, serves net/http/pprof's /debug/pprof/ on a
// listener of its own, never on the API's: profiles of a live daemon for
// whoever can reach that address, which should be a private one. The
// listener closes when the drain begins.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which only -debug-addr serves
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachier/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cachierd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cachierd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile     = fs.String("addr-file", "", "write the resolved listen address to this file")
		workers      = fs.Int("workers", 0, "max concurrent heavy pipeline executions (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "max queued executions before 429 (negative = no queue)")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request deadline")
		cacheEntries = fs.Int("cache-entries", 512, "entries per content-addressed cache")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		metricsDump  = fs.String("metrics-dump", "", "write a final JSON metrics snapshot to this file on shutdown")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this address, apart from the API (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		CacheEntries:   *cacheEntries,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The debug listener is up before the address file is written, so a
	// harness that waits for the file finds both.
	stopDebug := func() {}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		ds := &http.Server{Handler: http.DefaultServeMux}
		dsDone := make(chan struct{})
		go func() {
			if err := ds.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stderr, "cachierd: debug listener: %v\n", err)
			}
			close(dsDone)
		}()
		stopDebug = func() { ds.Close(); <-dsDone }
		defer stopDebug()
		fmt.Fprintf(stdout, "cachierd: debug listening on %s\n", dln.Addr())
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stdout, "cachierd: listening on %s\n", resolved)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "cachierd: draining")
	stopDebug()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "cachierd: %v (shutting down anyway)\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed

	if *metricsDump != "" {
		data, err := json.MarshalIndent(srv.Metrics().Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsDump, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "cachierd: stopped")
	return nil
}
