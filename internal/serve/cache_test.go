package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU("test", 3)
	for i := 0; i < 3; i++ {
		if c.put(fmt.Sprint(i), i) {
			t.Errorf("put %d into a cache with room reported an eviction", i)
		}
	}
	c.get("0") // refresh 0; 1 is now the least recently used
	if !c.put("3", 3) {
		t.Error("put into a full cache reported no eviction")
	}
	if _, ok := c.get("1"); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("entry %s evicted unexpectedly", k)
		}
	}
	if got := c.len(); got != 3 {
		t.Errorf("len = %d, want 3", got)
	}
	// Updating an existing key must not grow or evict.
	if c.put("2", 22) {
		t.Error("updating an entry reported an eviction")
	}
	if v, _ := c.get("2"); v != 22 {
		t.Errorf("updated entry = %v, want 22", v)
	}
	if got := c.len(); got != 3 {
		t.Errorf("len after update = %d, want 3", got)
	}
}

func TestFlightGroupCollapses(t *testing.T) {
	g := newFlightGroup()
	var runs atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.do("k", func() (any, error) {
				runs.Add(1)
				<-release
				return "result", nil
			})
			if err != nil || v != "result" {
				t.Errorf("do: %v, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait until the leader is inside fn, then give followers time to join.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Errorf("%d callers shared, want %d", got, n-1)
	}
	// Completed flights are forgotten: the next call runs fn again.
	_, shared, _ := g.do("k", func() (any, error) { runs.Add(1); return nil, nil })
	if shared || runs.Load() != 2 {
		t.Errorf("post-completion call shared=%v runs=%d, want a fresh execution", shared, runs.Load())
	}
}

func TestFlightGroupErrorSharing(t *testing.T) {
	g := newFlightGroup()
	boom := errors.New("boom")
	_, _, err := g.do("k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("leader error = %v, want boom", err)
	}
}

// TestFlightGroupLeaderPanic: a leader whose fn panics keeps its panic, but
// its follower is released with an error and the key is forgotten, so the
// next call runs fn again instead of waiting on a flight nobody will finish.
func TestFlightGroupLeaderPanic(t *testing.T) {
	g := newFlightGroup()
	inside, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.do("k", func() (any, error) {
			close(inside)
			<-release
			panic("boom")
		})
	}()
	<-inside
	follower := make(chan error, 1)
	go func() {
		_, _, err := g.do("k", func() (any, error) { return nil, nil })
		follower <- err
	}()
	// The follower either joins the flight or, arriving after the panic,
	// runs its own fn; hold the leader until it has had time to join.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if r := <-leader; r != "boom" {
		t.Errorf("leader recovered %v, want its own panic", r)
	}
	select {
	case err := <-follower:
		if !errors.Is(err, errLeaderPanicked) {
			t.Errorf("follower error = %v, want errLeaderPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower still waiting on a flight whose leader panicked")
	}
	v, shared, err := g.do("k", func() (any, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Errorf("call after the panic = (%v, %v, %v), want a fresh execution", v, shared, err)
	}
}

func TestPoolBackpressure(t *testing.T) {
	p := newPool(1, 1)
	ctx := context.Background()
	if err := p.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := p.busy(); got != 1 {
		t.Errorf("busy = %d, want 1", got)
	}

	// One caller may queue; it blocks until the slot frees.
	queued := make(chan error, 1)
	go func() { queued <- p.acquire(ctx) }()
	for p.depth() == 0 {
		time.Sleep(time.Millisecond)
	}

	// The queue is now full: the next caller fails fast.
	if err := p.acquire(ctx); !errors.Is(err, errBusy) {
		t.Fatalf("overflow acquire = %v, want errBusy", err)
	}

	p.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	p.release()
}

func TestPoolContextCancellation(t *testing.T) {
	p := newPool(1, 4)
	if err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.acquire(ctx) }()
	for p.depth() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	if got := p.depth(); got != 0 {
		t.Errorf("depth after cancellation = %d, want 0", got)
	}
	p.release()
}
