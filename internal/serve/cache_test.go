package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// lookup probes the cache read-only: a would-be leader's flight is
// settled empty immediately so the cache state is unchanged.
func lookup(c *cache, key CacheKey) ([]byte, bool) {
	body, fl, leader := c.acquire(key)
	if leader {
		c.settle(key, fl, nil)
	}
	return body, body != nil
}

// mkEntry builds a distinct request (keyed by i) and a response body
// whose length grows with pad, for size-sensitive LRU tests.
func mkEntry(t *testing.T, i, pad int) (*Request, []byte) {
	t.Helper()
	req := &Request{Algo: AlgoLP, Instance: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))}
	resp := &Response{Algo: AlgoLP, LPBound: int64(i)}
	if pad > 0 {
		resp.Assignment = make([]int, pad)
	}
	body, err := encodeJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return req, body
}

// storeOne runs the leader flow for one request: acquire, store, settle.
func storeOne(t *testing.T, c *cache, req *Request, body []byte) CacheKey {
	t.Helper()
	key, _ := KeyRequest(req)
	got, fl, leader := c.acquire(key)
	if got != nil {
		return key // already cached
	}
	if !leader {
		t.Fatalf("unexpected concurrent flight for %v", key)
	}
	c.store(key, body)
	c.settle(key, fl, body)
	return key
}

// TestCacheLRUOrderMixedSizes pins the recency order under entries of
// different sizes: touching an entry saves it, the least recently used
// one goes first, regardless of size.
func TestCacheLRUOrderMixedSizes(t *testing.T) {
	c := newCache(3, 1<<20)
	var keys [4]CacheKey
	for i := 0; i < 3; i++ {
		req, body := mkEntry(t, i, 10*i) // sizes differ on purpose
		keys[i] = storeOne(t, c, req, body)
	}
	// Touch 0: the LRU victim is now 1.
	if _, ok := lookup(c, keys[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	req, body := mkEntry(t, 3, 0)
	keys[3] = storeOne(t, c, req, body)
	if _, ok := lookup(c, keys[1]); ok {
		t.Fatal("LRU violation: untouched entry 1 survived over-capacity insert")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := lookup(c, keys[i]); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if got := c.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestCacheBoundsProperty drives 200 seeded insert sequences with mixed
// entry sizes, duplicate keys and oversized entries, and checks after
// every operation that both bounds hold and the byte accounting is
// internally consistent — the "-cache-bytes never exceeded" property.
func TestCacheBoundsProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxEntries := 1 + rng.Intn(8)
		maxBytes := int64(150 + rng.Intn(2500))
		c := newCache(maxEntries, maxBytes)
		for op := 0; op < 60; op++ {
			// Duplicate keys hit while resident and re-insert after
			// eviction; fresh keys grow the LRU until the bounds bite.
			i := rng.Intn(20)
			req, body := mkEntry(t, i, rng.Intn(120))
			storeOne(t, c, req, body)

			c.mu.Lock()
			var sum int64
			for e := c.lru.Front(); e != nil; e = e.Next() {
				sum += e.Value.(*cacheEntry).size
			}
			entries, bytes, lruLen := len(c.entries), c.bytes, c.lru.Len()
			c.mu.Unlock()

			if bytes > maxBytes {
				t.Fatalf("seed %d op %d: %d bytes resident, bound %d", seed, op, bytes, maxBytes)
			}
			if entries > maxEntries {
				t.Fatalf("seed %d op %d: %d entries resident, bound %d", seed, op, entries, maxEntries)
			}
			if sum != bytes || lruLen != entries {
				t.Fatalf("seed %d op %d: accounting drift: sum=%d bytes=%d lru=%d entries=%d",
					seed, op, sum, bytes, lruLen, entries)
			}
		}
	}
}

// TestCacheOversizedEntryNotStored: an entry that alone exceeds the byte
// bound is skipped rather than evicting everything else for nothing.
func TestCacheOversizedEntryNotStored(t *testing.T) {
	c := newCache(8, 128)
	small, smallBody := mkEntry(t, 1, 0)
	smallKey := storeOne(t, c, small, smallBody)
	big, bigBody := mkEntry(t, 2, 1000)
	bigKey := storeOne(t, c, big, bigBody)
	if _, ok := lookup(c, bigKey); ok {
		t.Fatal("oversized entry was stored")
	}
	if _, ok := lookup(c, smallKey); !ok {
		t.Fatal("oversized insert evicted the resident small entry")
	}
}

// newCachedServer builds a one-worker cached server whose run seam the
// sub-tests replace before traffic.
func newCachedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 16
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestCacheNeverCachesFailures pins the negative caching contract: a
// failed, timed-out, panicked, or abandoned request never populates the
// cache — an identical retry always reaches the solver again.
func TestCacheNeverCachesFailures(t *testing.T) {
	req := func() []*Request {
		return []*Request{{Algo: Algo2Approx, Instance: instanceJSON(t)}}
	}

	t.Run("solver error", func(t *testing.T) {
		s := newCachedServer(t, Config{Workers: 1})
		s.run = func(context.Context, *decoded, *Workspaces) (*Response, error) {
			return nil, errors.New("boom")
		}
		for i := 0; i < 2; i++ {
			results, err := s.Submit(context.Background(), req())
			if err != nil || results[0].Err == nil {
				t.Fatalf("try %d: err=%v resultErr=%v", i, err, results[0].Err)
			}
		}
		st := s.Stats()
		if st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 0 {
			t.Fatalf("failed responses leaked into the cache: %+v", st)
		}
		if st.Failed != 2 {
			t.Fatalf("failed counter = %d, want 2", st.Failed)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		s := newCachedServer(t, Config{Workers: 1})
		s.run = func(ctx context.Context, _ *decoded, _ *Workspaces) (*Response, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		r := req()
		r[0].TimeoutMS = 20
		for i := 0; i < 2; i++ {
			results, err := s.Submit(context.Background(), r)
			if err != nil || !errors.Is(results[0].Err, context.DeadlineExceeded) {
				t.Fatalf("try %d: err=%v resultErr=%v", i, err, results[0].Err)
			}
		}
		st := s.Stats()
		if st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 0 {
			t.Fatalf("timed-out responses leaked into the cache: %+v", st)
		}
		if st.Canceled != 2 {
			t.Fatalf("canceled counter = %d, want 2", st.Canceled)
		}
	})

	t.Run("panic", func(t *testing.T) {
		s := newCachedServer(t, Config{Workers: 1})
		s.run = func(context.Context, *decoded, *Workspaces) (*Response, error) {
			panic("pathological instance")
		}
		for i := 0; i < 2; i++ {
			results, err := s.Submit(context.Background(), req())
			if err != nil || results[0].Err == nil {
				t.Fatalf("try %d: err=%v resultErr=%v", i, err, results[0].Err)
			}
		}
		st := s.Stats()
		if st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 0 {
			t.Fatalf("panicked responses leaked into the cache: %+v", st)
		}
	})

	t.Run("abandoned in queue", func(t *testing.T) {
		s := newCachedServer(t, Config{Workers: 1})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.Submit(ctx, req()); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.CacheMisses != 0 || st.CacheHits != 0 || st.CacheEntries != 0 {
			t.Fatalf("abandoned request touched the cache: %+v", st)
		}
	})
}

// TestCacheHitServesIdenticalBytes: the basic contract on the real
// solvers — the second identical request is a hit and its wire bytes
// are exactly the first one's.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	s := newCachedServer(t, Config{Workers: 1})
	reqs := []*Request{{Algo: AlgoBest, Instance: instanceJSON(t), WantSchedule: true}}
	var bodies [2][]byte
	for i := range bodies {
		results, err := s.Submit(context.Background(), reqs)
		if err != nil || results[0].Err != nil {
			t.Fatalf("try %d: err=%v resultErr=%v", i, err, results[0].Err)
		}
		bodies[i] = results[0].Body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("cache hit drifted from the cold solve:\ncold %s\nwarm %s", bodies[0], bodies[1])
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Fatalf("counters after one repeat: %+v", st)
	}
}

// TestCacheKeySeparatesRequests: requests differing in any keyed field —
// including the timeout, which gates whether a request fails — never
// share a cache entry.
func TestCacheKeySeparatesRequests(t *testing.T) {
	inst := instanceJSON(t)
	base := Request{Algo: Algo2Approx, Instance: inst}
	variants := []Request{
		{Algo: AlgoBest, Instance: inst},
		{Algo: Algo2Approx, Instance: json.RawMessage(` ` + string(inst))},
		{Algo: Algo2Approx, Instance: inst, TimeoutMS: 1000},
		{Algo: Algo2Approx, Instance: inst, MaxNodes: 5},
		{Algo: Algo2Approx, Instance: inst, Frame: 2},
		{Algo: Algo2Approx, Instance: inst, WantSchedule: true},
		{Algo: Algo2Approx, Instance: inst, Memory: &MemorySpec{}},
	}
	baseKey, _ := KeyRequest(&base)
	for i, v := range variants {
		if key, _ := KeyRequest(&v); key == baseKey {
			t.Errorf("variant %d collides with the base request", i)
		}
	}
}

// TestCacheDisabledByDefault: the zero config serves exactly as before —
// no cache, counters stay zero, repeats re-solve.
func TestCacheDisabledByDefault(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if s.cache != nil {
		t.Fatal("cache allocated without CacheEntries")
	}
	reqs := []*Request{{Algo: AlgoLP, Instance: instanceJSON(t)}}
	for i := 0; i < 2; i++ {
		if results, err := s.Submit(context.Background(), reqs); err != nil || results[0].Err != nil {
			t.Fatalf("try %d failed", i)
		}
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheCollapsed != 0 || st.CacheEntries != 0 {
		t.Fatalf("cache counters moved while disabled: %+v", st)
	}
}

// TestConfigCacheDefaults: enabling the cache without a byte bound gets
// the documented 64 MiB default; disabled stays fully zero.
func TestConfigCacheDefaults(t *testing.T) {
	if got := (Config{CacheEntries: 10}).withDefaults().CacheBytes; got != 64<<20 {
		t.Fatalf("default CacheBytes = %d, want %d", got, 64<<20)
	}
	if got := (Config{}).withDefaults().CacheBytes; got != 0 {
		t.Fatalf("disabled cache got a byte bound: %d", got)
	}
}
