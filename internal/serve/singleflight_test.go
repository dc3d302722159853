package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleflightRaceHammer is the collapse satellite: 8
// goroutines fire bursts of byte-identical requests at a small cached
// pool (run under -race in CI). Per burst the solver must run exactly
// once; afterwards the collapse counter must have moved and the cache
// counters must reconcile with the accepted total with no drift.
func TestCacheSingleflightRaceHammer(t *testing.T) {
	const (
		goroutines = 8
		bursts     = 10
	)
	s := New(Config{Workers: 4, QueueDepth: 256, CacheEntries: 256})
	defer s.Close()

	// Each burst's requests differ only in TimeoutMS, which is part of
	// the cache key — ten distinct keys over one shared instance, and the
	// timeout doubles as the burst ID inside the run seam.
	inst := instanceJSON(t)
	burstReq := func(b int) *Request {
		return &Request{Algo: Algo2Approx, Instance: inst, TimeoutMS: int64(60_000 + b)}
	}

	// The seam holds each burst's leader open until all 8 submissions of
	// that burst are in flight, plus a beat for idle workers to pick the
	// queued copies up — so followers genuinely wait on the flight (the
	// collapsed path) instead of arriving after it settled (plain hits).
	var (
		mu        sync.Mutex
		solves    = make(map[int64]int)
		submitted [bursts]atomic.Int32
	)
	realRun := s.run
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		b := req.TimeoutMS - 60_000
		mu.Lock()
		solves[b]++
		mu.Unlock()
		deadline := time.Now().Add(5 * time.Second)
		for submitted[b].Load() < goroutines {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("burst %d never fully submitted", b)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(25 * time.Millisecond)
		return realRun(ctx, req, ws)
	}

	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				submitted[b].Add(1)
				results, err := s.Submit(context.Background(), []*Request{burstReq(b)})
				if err != nil {
					errc <- err
					return
				}
				if results[0].Err != nil {
					errc <- results[0].Err
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("burst %d: %v", b, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for b := int64(0); b < bursts; b++ {
		if solves[b] != 1 {
			t.Errorf("burst %d: solver ran %d times, want exactly 1", b, solves[b])
		}
	}

	st := s.Stats()
	total := uint64(goroutines * bursts)
	if st.Accepted != total || st.Completed != total || st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("accepted=%d completed=%d failed=%d canceled=%d, want %d/%d/0/0",
			st.Accepted, st.Completed, st.Failed, st.Canceled, total, total)
	}
	if st.CacheCollapsed == 0 {
		t.Error("no request ever collapsed onto an in-flight solve")
	}
	if st.CacheMisses != bursts {
		t.Errorf("misses = %d, want one leader per burst (%d)", st.CacheMisses, bursts)
	}
	if st.CacheHits+st.CacheMisses+st.CacheCollapsed != total {
		t.Errorf("hit(%d)+miss(%d)+collapsed(%d) = %d, drifted from the %d accepted requests",
			st.CacheHits, st.CacheMisses, st.CacheCollapsed,
			st.CacheHits+st.CacheMisses+st.CacheCollapsed, total)
	}
}
