// Package cache is the content-addressed analysis cache behind
// WASABI-as-a-service: it memoizes the expensive per-file LLM reviews
// (§3.1.1 technique 2, §3.2.1 — the paper's ~2,600 GPT-4 calls and ~$8
// per app per run, §4.3) and the per-app static analyses (§3.1.1
// technique 1) across pipeline runs, so re-analyzing a corpus whose
// files have not changed spends zero LLM tokens and re-analyzing after
// touching one file re-reviews only that file.
//
// Entries are addressed by content, not by time: a review key is derived
// from the file's path, its content hash and the client's prompt/config
// fingerprint (llm.Config.Fingerprint), an analysis key from the
// directory's manifest digest (FromSnapshot) — see keys.go and
// docs/SERVICE.md for the exact derivations. There is no TTL and no
// explicit invalidation API; changing an input changes its key, and the
// stale entry simply ages out of the LRU.
//
// The in-memory tier holds encoded entries under a byte budget with LRU
// eviction. An optional disk tier (Options.Dir) persists review and
// retry-facts entries as JSON files, read through on memory misses and
// written through on stores — a restarted daemon replays both the
// expensive LLM tier and the static extraction tier from disk at zero
// parses. Whole-app analyses are a cheap in-memory merge of facts and
// stay memory-only. All operations are goroutine-safe; hit/miss counts
// are deterministic functions of the logical access sequence, so
// pipeline tests can assert them exactly.
package cache

import (
	"container/list"
	"sync"

	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/sast"
)

// Stage names used in metrics labels and Stats maps: one per cached
// artifact kind.
const (
	// StageReview marks per-file LLM review entries.
	StageReview = "review"
	// StageAnalysis marks per-app static analysis entries.
	StageAnalysis = "analysis"
	// StageFacts marks per-file retry-facts entries (sast.FileFacts, the
	// portable static-extraction artifacts).
	StageFacts = "facts"
)

// DefaultMaxBytes is the in-memory byte budget when Options.MaxBytes is
// unset: comfortably above one full-corpus run (~1 MB of encoded
// reviews) while bounding a long-lived daemon.
const DefaultMaxBytes = 64 << 20

// Options configures a cache.
type Options struct {
	// MaxBytes is the in-memory byte budget; entries are evicted in LRU
	// order once the total estimated cost exceeds it. Zero or negative
	// means DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the disk tier: review entries are
	// persisted as JSON files in this directory and survive process
	// restarts. The directory is created if missing.
	Dir string
	// Metrics, when non-nil, receives the cache_* counters and gauges
	// (docs/OBSERVABILITY.md).
	Metrics *obs.Registry
}

// Cache is a content-addressed, byte-budgeted memoization store. The
// zero value is not usable; call New. A nil *Cache is valid everywhere
// in internal/core and disables memoization.
type Cache struct {
	maxBytes int64
	dir      string
	reg      *obs.Registry

	mu      sync.Mutex
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses  map[string]int64 // by stage
	evictions     int64
	diskLoads     int64
	persistErrors int64
	diskEntries   int64 // disk-tier entry files
	diskBytes     int64 // disk-tier byte total
}

// entry is one cached artifact. Exactly one of data / analysis is set,
// per stage.
type entry struct {
	key      string
	stage    string
	data     []byte // StageReview: encoded envelope
	analysis *sast.Analysis
	cost     int64
}

// New returns a cache with the given options. With Options.Dir set, the
// directory is created eagerly so persistence failures surface at
// construction rather than mid-run.
func New(opts Options) (*Cache, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxBytes: opts.MaxBytes,
		dir:      opts.Dir,
		reg:      opts.Metrics,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		hits:     make(map[string]int64),
		misses:   make(map[string]int64),
	}
	if err := c.initDir(); err != nil {
		return nil, err
	}
	c.reg.Gauge("cache_max_bytes").Set(float64(c.maxBytes))
	return c, nil
}

// GetReview returns the memoized review under key. The stored envelope
// is decoded on every hit, so callers own the returned value outright
// and can never alias another caller's slices. Misses fall through to
// the disk tier when one is configured.
func (c *Cache) GetReview(key string) (llm.FileReview, bool) {
	if c == nil {
		return llm.FileReview{}, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		c.hits[StageReview]++
		c.mu.Unlock()
		c.reg.Counter("cache_hits_total", "stage", StageReview).Inc()
		rev, err := decodeReview(data, key)
		if err == nil {
			return rev, true
		}
		// An undecodable in-memory entry can only mean corruption;
		// drop it and report a miss.
		c.remove(key)
		c.reg.Counter("cache_decode_errors_total").Inc()
		return llm.FileReview{}, false
	}
	c.mu.Unlock()
	if data, ok := c.loadDisk(key); ok {
		rev, err := decodeReview(data, key)
		if err == nil {
			c.mu.Lock()
			c.diskLoads++
			c.hits[StageReview]++
			c.install(&entry{key: key, stage: StageReview, data: data, cost: int64(len(data))})
			c.mu.Unlock()
			c.reg.Counter("cache_hits_total", "stage", StageReview).Inc()
			c.reg.Counter("cache_disk_loads_total").Inc()
			return rev, true
		}
		// A truncated, corrupt or version-mismatched disk entry is a
		// miss, and the poisoned file is dropped so it cannot fail again.
		c.reg.Counter("cache_decode_errors_total").Inc()
		c.dropDisk(key)
	}
	c.miss(StageReview)
	return llm.FileReview{}, false
}

// PutReview memoizes a review under key, writing through to the disk
// tier when one is configured. Degraded reviews must not be stored (they
// record a backend failure, not an answer); callers enforce that.
func (c *Cache) PutReview(key string, rev llm.FileReview) {
	if c == nil {
		return
	}
	data, err := encodeReview(key, rev)
	if err != nil {
		c.reg.Counter("cache_decode_errors_total").Inc()
		return
	}
	c.storeDisk(key, data)
	c.mu.Lock()
	c.install(&entry{key: key, stage: StageReview, data: data, cost: int64(len(data))})
	c.mu.Unlock()
}

// GetFacts returns the decoded retry-facts entry for a content hash —
// the sast.FactsStore read side. Decoding re-validates the format
// version and content hash on every hit, so callers own a verified
// value; misses fall through to the disk tier, which is what makes the
// static extraction tier survive a process restart. A corrupt entry is
// a miss: dropped from memory, deleted from disk, never an error.
func (c *Cache) GetFacts(contentSHA256 string) (*sast.FileFacts, bool) {
	if c == nil {
		return nil, false
	}
	key := FactsKey(contentSHA256)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		c.hits[StageFacts]++
		c.mu.Unlock()
		c.reg.Counter("cache_hits_total", "stage", StageFacts).Inc()
		ff, err := sast.DecodeFacts(data, contentSHA256)
		if err == nil {
			return ff, true
		}
		c.remove(key)
		c.reg.Counter("cache_decode_errors_total").Inc()
		return nil, false
	}
	c.mu.Unlock()
	if data, ok := c.loadDisk(key); ok {
		ff, err := sast.DecodeFacts(data, contentSHA256)
		if err == nil {
			c.mu.Lock()
			c.diskLoads++
			c.hits[StageFacts]++
			c.install(&entry{key: key, stage: StageFacts, data: data, cost: int64(len(data))})
			c.mu.Unlock()
			c.reg.Counter("cache_hits_total", "stage", StageFacts).Inc()
			c.reg.Counter("cache_disk_loads_total").Inc()
			return ff, true
		}
		c.reg.Counter("cache_decode_errors_total").Inc()
		c.dropDisk(key)
	}
	c.miss(StageFacts)
	return nil, false
}

// PutFacts memoizes a retry-facts entry, writing through to the disk
// tier — the sast.FactsStore write side. Best-effort like every store:
// an encode or persist failure degrades to recomputation, never to an
// analysis error.
func (c *Cache) PutFacts(contentSHA256 string, ff *sast.FileFacts) {
	if c == nil || ff == nil {
		return
	}
	data, err := sast.EncodeFacts(ff)
	if err != nil {
		c.reg.Counter("cache_decode_errors_total").Inc()
		return
	}
	key := FactsKey(contentSHA256)
	c.storeDisk(key, data)
	c.mu.Lock()
	c.install(&entry{key: key, stage: StageFacts, data: data, cost: int64(len(data))})
	c.mu.Unlock()
}

// GetAnalysis returns the memoized static analysis under key. Analyses
// are shared by pointer and must be treated as immutable by every
// consumer (they are: internal/core and internal/sast only ever read a
// finished Analysis).
func (c *Cache) GetAnalysis(key string) (*sast.Analysis, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		a := el.Value.(*entry).analysis
		c.hits[StageAnalysis]++
		c.mu.Unlock()
		c.reg.Counter("cache_hits_total", "stage", StageAnalysis).Inc()
		return a, true
	}
	c.mu.Unlock()
	c.miss(StageAnalysis)
	return nil, false
}

// PutAnalysis memoizes a static analysis under key. cost estimates the
// entry's memory footprint (callers pass the analyzed directory's source
// byte total). Analyses stay memory-only: they are a cheap cross-file
// merge whose per-file inputs already persist as facts entries, so a
// restarted process rebuilds them from disk without parsing.
func (c *Cache) PutAnalysis(key string, a *sast.Analysis, cost int64) {
	if c == nil || a == nil {
		return
	}
	if cost <= 0 {
		cost = 1
	}
	c.mu.Lock()
	c.install(&entry{key: key, stage: StageAnalysis, analysis: a, cost: cost})
	c.mu.Unlock()
}

// miss records a miss for stage.
func (c *Cache) miss(stage string) {
	c.mu.Lock()
	c.misses[stage]++
	c.mu.Unlock()
	c.reg.Counter("cache_misses_total", "stage", stage).Inc()
}

// install inserts or replaces the entry and evicts LRU entries until the
// byte budget holds again. Called with c.mu held. An entry larger than
// the whole budget is evicted immediately after insertion — effectively
// never cached, but accounted honestly.
func (c *Cache) install(e *entry) {
	if el, ok := c.entries[e.key]; ok {
		old := el.Value.(*entry)
		c.bytes += e.cost - old.cost
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.entries[e.key] = c.ll.PushFront(e)
		c.bytes += e.cost
	}
	for c.bytes > c.maxBytes && c.ll.Len() > 0 {
		back := c.ll.Back()
		victim := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= victim.cost
		c.evictions++
		c.reg.Counter("cache_evictions_total").Inc()
	}
	c.reg.Gauge("cache_bytes").Set(float64(c.bytes))
	c.reg.Gauge("cache_entries").Set(float64(c.ll.Len()))
}

// remove drops key from the in-memory tier (the disk tier, if any, is
// left alone).
func (c *Cache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, key)
	c.bytes -= e.cost
	c.reg.Gauge("cache_bytes").Set(float64(c.bytes))
	c.reg.Gauge("cache_entries").Set(float64(c.ll.Len()))
}

// Stats is a deterministic point-in-time summary of the cache: maps
// marshal with sorted keys, so equal states render equal JSON.
type Stats struct {
	Entries       int              `json:"entries"`
	Bytes         int64            `json:"bytes"`
	MaxBytes      int64            `json:"max_bytes"`
	Hits          map[string]int64 `json:"hits"`
	Misses        map[string]int64 `json:"misses"`
	Evictions     int64            `json:"evictions"`
	DiskLoads     int64            `json:"disk_loads"`
	PersistErrors int64            `json:"persist_errors"`
	// DiskEntries / DiskBytes describe the disk tier: entry-file count
	// and byte total, seeded by a directory scan at construction and
	// maintained across stores and corrupt-entry deletions.
	DiskEntries int64 `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
}

// Stats snapshots the cache counters. Nil-safe: a nil cache reports the
// zero Stats (with non-nil maps, so it still marshals stably).
func (c *Cache) Stats() Stats {
	s := Stats{Hits: map[string]int64{}, Misses: map[string]int64{}}
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	for k, v := range c.hits {
		s.Hits[k] = v
	}
	for k, v := range c.misses {
		s.Misses[k] = v
	}
	s.Evictions = c.evictions
	s.DiskLoads = c.diskLoads
	s.PersistErrors = c.persistErrors
	s.DiskEntries = c.diskEntries
	s.DiskBytes = c.diskBytes
	return s
}
