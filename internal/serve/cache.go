package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// This file is the content-addressed solve cache: admission sweeps and
// retry-heavy clients re-send byte-identical requests, and the solvers
// are deterministic, so a response computed once can be served again
// without burning a single pivot or DFS node. Server.Submit consults it
// at admission, before any queueing, and it stores each response as the
// exact bytes the wire carries, so a hit costs a hash and a copy to the
// socket. Three pieces:
//
//   - CanonicalRequest: a canonical, injective byte encoding of every
//     request field that can influence the response bytes (algo,
//     instance document, memory spec, frame, node cap, want_schedule,
//     and the timeout — see the note below). Every field is tagged and
//     length-prefixed, so two requests share an encoding if and only if
//     they would be answered identically.
//   - CacheKey: the content address — the request's algo tag and
//     canonical length held verbatim plus the SHA-256 of the canonical
//     bytes. A collision between non-identical canonical requests
//     therefore needs same algo, same length, AND a SHA-256 collision.
//   - cache: a mutex-guarded LRU of response bodies bounded by entry
//     count and total bytes, with singleflight collapsing — of N
//     concurrent identical requests, one leader solves while the rest
//     wait on its result.
//
// Only successful responses are ever cached: a canceled, timed-out, or
// failed solve says nothing reusable about the instance (and a timeout
// is a property of the deadline, not the content). The timeout is part
// of the key on purpose: success is deterministic given the other
// fields, but a request that would time out cold must keep timing out
// on a cached server — byte-identity includes the error paths.

// CacheKey is the content address of a request: the algo tag and the
// canonical encoding's length verbatim, plus the SHA-256 digest of the
// canonical bytes. Comparable, so it keys maps directly.
type CacheKey struct {
	Algo string
	Len  int
	Sum  [32]byte
}

// KeyRequest canonically encodes the request and hashes it to its cache
// key. The returned bytes are the canonical encoding itself (the fuzz
// target pins its injectivity).
func KeyRequest(req *Request) (CacheKey, []byte) {
	canon := CanonicalRequest(nil, req)
	return CacheKey{Algo: req.Algo, Len: len(canon), Sum: sha256.Sum256(canon)}, canon
}

// Canonical-encoding field tags. Every field is written in this fixed
// order, tagged, with variable-length payloads length-prefixed, which
// makes the encoding injective over the keyed field tuple: no
// concatenation of one request's fields can equal another's unless the
// fields themselves are equal.
const (
	canonVersion     = 0x01
	canonTagAlgo     = 'a'
	canonTagInstance = 'i'
	canonTagTimeout  = 't'
	canonTagMaxNodes = 'n'
	canonTagFrame    = 'f'
	canonTagSchedule = 's'
	canonTagMemory   = 'm'
)

// CanonicalRequest appends the canonical byte encoding of every keyed
// request field to dst and returns the extended slice.
func CanonicalRequest(dst []byte, req *Request) []byte {
	dst = append(dst, canonVersion)
	dst = append(dst, canonTagAlgo)
	dst = binary.AppendUvarint(dst, uint64(len(req.Algo)))
	dst = append(dst, req.Algo...)
	dst = append(dst, canonTagInstance)
	dst = binary.AppendUvarint(dst, uint64(len(req.Instance)))
	dst = append(dst, req.Instance...)
	dst = append(dst, canonTagTimeout)
	dst = binary.AppendVarint(dst, req.TimeoutMS)
	dst = append(dst, canonTagMaxNodes)
	dst = binary.AppendVarint(dst, int64(req.MaxNodes))
	dst = append(dst, canonTagFrame)
	dst = binary.AppendVarint(dst, req.Frame)
	dst = append(dst, canonTagSchedule)
	if req.WantSchedule {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = append(dst, canonTagMemory)
	if req.Memory == nil {
		return append(dst, 0)
	}
	m := req.Memory
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(m.Budget)))
	for _, b := range m.Budget {
		dst = binary.AppendVarint(dst, b)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Size)))
	for _, row := range m.Size {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, v := range row {
			dst = binary.AppendVarint(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.JobSize)))
	for _, v := range m.JobSize {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Mu))
}

// flight is one in-progress solve that identical concurrent requests
// collapse onto: the leader solves, settles body (nil when it failed or
// was shed), and closes done; followers wait on done under their own
// contexts.
type flight struct {
	done chan struct{}
	body []byte
}

// cacheEntry is one LRU-resident response body. size is the accounting
// charge: the canonical encoding's length plus the body's.
type cacheEntry struct {
	key  CacheKey
	body []byte
	size int64
}

// cache is the content-addressed response store. All LRU and flight
// state lives under one mutex (operations are pointer shuffles; the
// solves themselves happen outside it); the counters are atomics so
// Stats never takes the lock.
type cache struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	entries map[CacheKey]*list.Element // values are *cacheEntry
	lru     *list.List                 // front = most recently used
	bytes   int64
	flights map[CacheKey]*flight

	hits, misses, collapsed, evictions atomic.Uint64
}

func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[CacheKey]*list.Element),
		lru:        list.New(),
		flights:    make(map[CacheKey]*flight),
	}
}

// acquire resolves a key atomically into exactly one of three outcomes:
// a cached body (hit), an in-progress flight to wait on, or leadership
// of a new flight (the caller MUST settle it). The miss for a leader is
// counted here so hits+misses+collapsed reconciles with the number of
// requests that reached the cache.
func (c *cache) acquire(key CacheKey) (body []byte, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e)
		c.hits.Add(1)
		return e.Value.(*cacheEntry).body, nil, false
	}
	if fl, ok := c.flights[key]; ok {
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.misses.Add(1)
	return nil, fl, true
}

// settle publishes the leader's outcome (body nil on failure) and
// releases the flight so later requests go back through the LRU.
func (c *cache) settle(key CacheKey, fl *flight, body []byte) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	fl.body = body
	close(fl.done)
}

// wait blocks a follower until the leader settles or the follower's own
// context dies. It returns (body, nil) on a collapsed hit, (nil, nil)
// when the leader failed or was shed — the follower must re-attempt —
// and (nil, ctx.Err()) when the follower's context ended first. A
// settled flight wins over a context that died at the same time.
func (c *cache) wait(ctx context.Context, fl *flight) ([]byte, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		select {
		case <-fl.done:
		default:
			return nil, ctx.Err()
		}
	}
	if fl.body != nil {
		c.collapsed.Add(1)
	}
	return fl.body, nil
}

// store inserts a successful response body, charging the canonical
// encoding's length (key.Len) plus len(body), then evicts from the LRU
// tail until both bounds hold again. Entries that could never fit are
// not stored. The caller leads the key's flight, so the key is absent:
// a stored key is hit at acquire and never led again.
func (c *cache) store(key CacheKey, body []byte) {
	size := int64(key.Len) + int64(len(body))
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, body: body, size: size})
	c.bytes += size
	for (len(c.entries) > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 0 {
		tail := c.lru.Back()
		ent := tail.Value.(*cacheEntry)
		c.lru.Remove(tail)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evictions.Add(1)
	}
}

// gauges snapshots the instantaneous entry count and byte total.
func (c *cache) gauges() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}
