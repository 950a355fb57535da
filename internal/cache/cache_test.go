package cache

import (
	"os"
	"path/filepath"
	"testing"

	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// review builds a distinguishable FileReview fixture.
func review(file string, tokens int64) llm.FileReview {
	return llm.FileReview{
		File:          file,
		Size:          int(tokens),
		PerformsRetry: true,
		Findings: []llm.Finding{{
			Coordinator: "pkg.Type." + file,
			File:        file,
			Mechanism:   "loop",
			HasCap:      true,
		}},
		Spent: llm.Usage{Calls: 3, TokensIn: tokens, CostUSD: float64(tokens) / 1000},
	}
}

func TestReviewRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := ReviewKey("cfg", "/a/b.go", "abc123")

	if _, ok := c.GetReview(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := review("b.go", 1234)
	c.PutReview(key, want)
	got, ok := c.GetReview(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.File != want.File || got.Spent != want.Spent || len(got.Findings) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	// Every hit decodes a fresh value: mutating one caller's copy must
	// not leak into the next.
	got.Findings[0].Coordinator = "mutated"
	again, _ := c.GetReview(key)
	if again.Findings[0].Coordinator != "pkg.Type.b.go" {
		t.Fatalf("hits alias a shared value: %q", again.Findings[0].Coordinator)
	}

	st := c.Stats()
	if st.Hits[StageReview] != 2 || st.Misses[StageReview] != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits[StageReview], st.Misses[StageReview])
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("entries/bytes = %d/%d", st.Entries, st.Bytes)
	}
}

// TestEvictionAtTinyBudget forces LRU eviction with a budget that holds
// roughly one encoded review, and checks the LRU order: the least
// recently used entry goes first.
func TestEvictionAtTinyBudget(t *testing.T) {
	reg := obs.NewRegistry()
	ka, kb := ReviewKey("cfg", "a.go", "1"), ReviewKey("cfg", "b.go", "2")
	one, err := encodeReview(ka, review("a.go", 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{MaxBytes: int64(len(one)) + 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.PutReview(ka, review("a.go", 1))
	c.PutReview(kb, review("b.go", 2)) // budget exceeded → a.go evicted
	if _, ok := c.GetReview(ka); ok {
		t.Fatal("LRU entry survived past the byte budget")
	}
	if _, ok := c.GetReview(kb); !ok {
		t.Fatal("MRU entry evicted")
	}

	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
	if got := reg.Snapshot().Counter("cache_evictions_total"); got != 1 {
		t.Fatalf("cache_evictions_total = %d, want 1", got)
	}
}

// TestPersistenceRoundTrip stores through a disk tier, then reads the
// entry back through a fresh cache instance — the process-restart path.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := ReviewKey("cfg", "/a/p.go", "deadbeef")

	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.PutReview(key, review("p.go", 777))

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.GetReview(key)
	if !ok {
		t.Fatal("disk read-through missed")
	}
	if got.Spent.TokensIn != 777 {
		t.Fatalf("review corrupted across restart: %+v", got)
	}
	st := c2.Stats()
	if st.DiskLoads != 1 || st.Hits[StageReview] != 1 {
		t.Fatalf("disk_loads/hits = %d/%d, want 1/1", st.DiskLoads, st.Hits[StageReview])
	}
	// Loaded entries populate the memory tier: a second get must not
	// touch disk again.
	if _, ok := c2.GetReview(key); !ok {
		t.Fatal("memory tier not populated after disk load")
	}
	if st := c2.Stats(); st.DiskLoads != 1 {
		t.Fatalf("disk_loads = %d after memory hit, want 1", st.DiskLoads)
	}

	// A corrupt disk entry is a miss, not an error.
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.GetReview(key); ok {
		t.Fatal("corrupt disk entry served as a hit")
	}
}

func TestAnalysisSharedByPointer(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := &sast.Analysis{}
	key := AnalysisKey("/some/dir", "digest")
	if _, ok := c.GetAnalysis(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutAnalysis(key, a, 100)
	got, ok := c.GetAnalysis(key)
	if !ok || got != a {
		t.Fatalf("analysis pointer not shared: %p vs %p", got, a)
	}
	st := c.Stats()
	if st.Hits[StageAnalysis] != 1 || st.Misses[StageAnalysis] != 1 {
		t.Fatalf("analysis hits/misses = %d/%d, want 1/1", st.Hits[StageAnalysis], st.Misses[StageAnalysis])
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.GetReview("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.PutReview("k", review("x.go", 1))
	if _, ok := c.GetAnalysis("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.PutAnalysis("k", &sast.Analysis{}, 1)
	st := c.Stats()
	if st.Entries != 0 || st.Hits == nil || st.Misses == nil {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestFromSnapshotManifest checks the manifest covers exactly the
// static source set and that its digest moves iff content does.
func TestFromSnapshotManifest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := source.NewStore(nil)
	manifest := func() *DirManifest {
		t.Helper()
		snap, err := st.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		return FromSnapshot(snap)
	}
	write("a.go", "package p\n")
	write("b.go", "package p\nfunc B() {}\n")
	write("b_test.go", "package p\n") // excluded: test file
	write("notes.txt", "hello")       // excluded: not Go

	m1 := manifest()
	_, a := m1.Files["a.go"]
	_, b := m1.Files["b.go"]
	if !a || !b || len(m1.Files) != 2 {
		t.Fatalf("manifest files = %v, want exactly a.go and b.go", m1.Files)
	}
	if m1.TotalBytes != m1.Files["a.go"].Size+m1.Files["b.go"].Size {
		t.Fatalf("total bytes = %d", m1.TotalBytes)
	}

	if m2 := manifest(); m1.Digest != m2.Digest {
		t.Fatal("digest not deterministic")
	}

	// Editing an excluded file must not move the digest; editing a
	// source file must.
	write("b_test.go", "package p\n// changed\n")
	write("notes.txt", "hello again")
	if m3 := manifest(); m3.Digest != m1.Digest {
		t.Fatal("digest moved on a non-source edit")
	}
	write("b.go", "package p\nfunc B() { _ = 1 }\n")
	m4 := manifest()
	if m4.Digest == m1.Digest {
		t.Fatal("digest did not move on a source edit")
	}
	if m4.Files["b.go"].SHA256 == m1.Files["b.go"].SHA256 {
		t.Fatal("file digest did not move on a source edit")
	}
}

// TestKeySeparation pins that each key ingredient matters.
func TestKeySeparation(t *testing.T) {
	base := ReviewKey("cfg", "/p/f.go", "h1")
	for name, other := range map[string]string{
		"config":  ReviewKey("cfg2", "/p/f.go", "h1"),
		"path":    ReviewKey("cfg", "/q/f.go", "h1"),
		"content": ReviewKey("cfg", "/p/f.go", "h2"),
	} {
		if other == base {
			t.Fatalf("review key ignores %s", name)
		}
	}
	if AnalysisKey("/p", "d1") == AnalysisKey("/p", "d2") {
		t.Fatal("analysis key ignores digest")
	}
	if AnalysisKey("/p", "d1") == AnalysisKey("/q", "d1") {
		t.Fatal("analysis key ignores dir")
	}
}

func TestFactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c1, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	hash := "feedface"
	if _, ok := c1.GetFacts(hash); ok {
		t.Fatal("hit on empty cache")
	}
	want := &sast.FileFacts{
		Schema: sast.FactsSchema, Hash: hash, Pkg: "demo",
		Funcs: []sast.FuncFacts{{
			Key: "T.m", Throws: []string{"IOException"}, HasHook: true,
			Calls: []string{"send"},
			Loops: []sast.LoopFacts{{Line: 7, Keyworded: true, Calls: []string{"send"}}},
		}},
	}
	c1.PutFacts(hash, want)
	got, ok := c1.GetFacts(hash)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Pkg != "demo" || len(got.Funcs) != 1 || got.Funcs[0].Loops[0].Line != 7 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	// Every hit decodes a fresh value — mutations must not leak.
	got.Funcs[0].Key = "mutated"
	if again, _ := c1.GetFacts(hash); again.Funcs[0].Key != "T.m" {
		t.Fatal("facts hits alias a shared value")
	}

	// The disk tier makes facts survive a restart: a fresh cache over
	// the same directory hydrates without any Put.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reborn, ok := c2.GetFacts(hash)
	if !ok {
		t.Fatal("facts did not survive restart")
	}
	if reborn.Funcs[0].Throws[0] != "IOException" {
		t.Fatalf("facts corrupted across restart: %+v", reborn)
	}
	st := c2.Stats()
	if st.DiskLoads != 1 || st.Hits[StageFacts] != 1 {
		t.Fatalf("disk_loads/facts hits = %d/%d, want 1/1", st.DiskLoads, st.Hits[StageFacts])
	}
}

// TestDiskCorruptionIsMissAndDrop injects every corruption class the
// disk tier must absorb — truncation, garbage, a facts schema bump and
// a review-envelope key mismatch — and checks each reads as a miss,
// deletes the bad file, and is counted.
func TestDiskCorruptionIsMissAndDrop(t *testing.T) {
	dir := t.TempDir()
	seed, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rkey := ReviewKey("cfg", "/a/r.go", "aaa")
	seed.PutReview(rkey, review("r.go", 42))
	seed.PutFacts("bbb", &sast.FileFacts{Schema: sast.FactsSchema, Hash: "bbb", Pkg: "demo"})

	// Corrupt both entries and add a stale-schema facts file.
	rpath := filepath.Join(dir, rkey+entrySuffix)
	data, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rpath, data[:len(data)/2], 0o644); err != nil { // truncated
		t.Fatal(err)
	}
	fpath := filepath.Join(dir, FactsKey("bbb")+entrySuffix)
	if err := os.WriteFile(fpath, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, FactsKey("ccc")+entrySuffix)
	stale := []byte(`{"schema":"wasabi-facts/v0","hash":"ccc","pkg":"demo"}`)
	if err := os.WriteFile(spath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskEntries != 3 {
		t.Fatalf("init scan found %d entries, want 3", st.DiskEntries)
	}
	if _, ok := c.GetReview(rkey); ok {
		t.Fatal("truncated review served as a hit")
	}
	if _, ok := c.GetFacts("bbb"); ok {
		t.Fatal("garbage facts served as a hit")
	}
	if _, ok := c.GetFacts("ccc"); ok {
		t.Fatal("stale-schema facts served as a hit")
	}
	for _, p := range []string{rpath, fpath, spath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry %s not deleted (err=%v)", filepath.Base(p), err)
		}
	}
	s := reg.Snapshot()
	if n := s.Counter("cache_disk_drops_total"); n != 3 {
		t.Fatalf("cache_disk_drops_total = %v, want 3", n)
	}
	if n := s.Counter("cache_decode_errors_total"); n != 3 {
		t.Fatalf("cache_decode_errors_total = %v, want 3", n)
	}
	st := c.Stats()
	if st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("disk accounting after drops = %d entries / %d bytes, want 0/0",
			st.DiskEntries, st.DiskBytes)
	}
}

// TestDiskStatsAccounting tracks the entry/byte bookkeeping through the
// full lifecycle: init scan, store, same-key replace, and drop.
func TestDiskStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("fresh dir accounting = %d/%d", st.DiskEntries, st.DiskBytes)
	}

	small := &sast.FileFacts{Schema: sast.FactsSchema, Hash: "h1", Pkg: "p"}
	c.PutFacts("h1", small)
	st := c.Stats()
	if st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("after store: %d entries / %d bytes", st.DiskEntries, st.DiskBytes)
	}
	firstBytes := st.DiskBytes

	// Replacing the same key keeps the entry count and adjusts bytes to
	// the new encoding's size.
	big := &sast.FileFacts{
		Schema: sast.FactsSchema, Hash: "h1", Pkg: "p",
		Funcs: []sast.FuncFacts{{Key: "F", Calls: []string{"a", "b", "c"}}},
	}
	c.PutFacts("h1", big)
	st = c.Stats()
	if st.DiskEntries != 1 || st.DiskBytes <= firstBytes {
		t.Fatalf("after replace: %d entries / %d bytes (was %d)",
			st.DiskEntries, st.DiskBytes, firstBytes)
	}

	// The gauges mirror the stats.
	s := reg.Snapshot()
	if g := s.Gauge("cache_disk_entries"); int64(g) != st.DiskEntries {
		t.Fatalf("cache_disk_entries gauge = %v, stats say %d", g, st.DiskEntries)
	}
	if g := s.Gauge("cache_disk_bytes"); int64(g) != st.DiskBytes {
		t.Fatalf("cache_disk_bytes gauge = %v, stats say %d", g, st.DiskBytes)
	}

	// A restart's init scan re-derives the same numbers from the files.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := c2.Stats(); st2.DiskEntries != st.DiskEntries || st2.DiskBytes != st.DiskBytes {
		t.Fatalf("init scan = %d/%d, live accounting said %d/%d",
			st2.DiskEntries, st2.DiskBytes, st.DiskEntries, st.DiskBytes)
	}
}
