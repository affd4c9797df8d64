package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cachier/internal/serve"
)

// TestLoadAgainstServer replays a small corpus against an in-process server
// and checks the summary: every request of both passes sent, zero
// divergences, and a full hit rate on the cached pass.
func TestLoadAgainstServer(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.DefaultConfig()).Handler())
	defer ts.Close()

	var out, errb bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-seeds", "5", "-nodes", "4", "-concurrency", "4",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v\nstdout:\n%s\nstderr:\n%s", err, &out, &errb)
	}
	// 6 programs (5 seeds + jacobi) × 4 classes, cold then cached.
	if want := "cachierload: 24+24 requests, 0 divergences, hit rate 1.000\n"; !strings.Contains(out.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, &out)
	}
}

// TestLoadDetectsDivergence points the harness at a server that corrupts
// one response and requires a nonzero exit plus a counted divergence.
func TestLoadDetectsDivergence(t *testing.T) {
	inner := serve.New(serve.DefaultConfig()).Handler()
	corrupt := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/vet" {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := bytes.Replace(rec.Body.Bytes(), []byte(`"findings"`), []byte(`"fudnings"`), 1)
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(corrupt)
	defer ts.Close()

	var out, errb bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-seeds", "2", "-static=false", "-concurrency", "2",
	}, &out, &errb)
	if err == nil {
		t.Fatalf("corrupted server not detected\nstdout:\n%s", &out)
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("error = %v, want a divergence report", err)
	}
	if !strings.Contains(errb.String(), "DIVERGENCE") {
		t.Fatalf("stderr missing divergence details:\n%s", &errb)
	}
}

// TestLoadTruncatesOnCancel: a pre-cancelled context sends nothing, still
// prints the summary, and exits nonzero as interrupted.
func TestLoadTruncatesOnCancel(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.DefaultConfig()).Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	err := run(ctx, []string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-seeds", "3",
	}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	if want := "cachierload: 0+0 requests"; !strings.Contains(out.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, &out)
	}
}

func TestLoadBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},                           // neither -addr nor -boot
		{"-addr", "x", "-boot", "y"}, // both
		{"-addr", "x", "-seeds", "0"},
		{"-addr", "x", "stray"},
	} {
		if err := run(context.Background(), args, &buf, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
