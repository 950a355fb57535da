// Package source is the parse-once snapshot store behind every static
// consumer of corpus bytes. The pipeline's stages are independent by
// design — traditional static analysis, LLM fuzzy comprehension, and
// content-addressed cache keying each interpret the same files (the
// paper's §3.1.1 techniques and the §4.3 cost model price them
// separately) — but that independence used to be paid on the hot path:
// every file was read from disk and parsed into an AST up to three
// times per run. A Store loads each file exactly once per run and
// interns the loaded artifact — (bytes, sha256, shared token.FileSet
// positions) — by (path, content hash), so a warm daemon re-parses only
// files whose bytes actually changed.
//
// Parsing is lazy: interning a file costs a read and a hash, and the
// AST is built only when a consumer actually asks for it via
// File.Syntax. That is what lets a restart-warm daemon serve an entire
// job at zero parses — the static tier hydrates its extraction facts
// from the disk cache (File.MemoThrough) and the LLM reviews replay
// from the review cache, so nothing ever touches go/ast.
//
// Consumers receive a Snapshot: the directory's source files in sorted
// order, fully loaded. Files are immutable once interned; derived
// per-file artifacts (e.g. internal/sast's method extraction) piggyback
// on the same content addressing through File.MemoThrough,
// which is what makes the static tier file-granular and incremental.
//
// Retention is bounded per path: the store keeps the latest
// DefaultKeepGenerations content versions of each path and evicts older
// generations — bytes, AST, and memoized artifacts together — so a
// long-lived daemon's memory plateaus under an endless edit history
// (source_evictions_total / source_retained_bytes account for it).
// Evicted versions stay valid in any snapshot still holding them (Files
// are immutable); re-loading one simply re-interns and recomputes.
//
// Concurrency: a Store is safe for concurrent Load calls across worker
// lanes. Parsing is serialized per File by a sync.Once; the shared
// token.FileSet is internally synchronized; a File's bytes and AST are
// never mutated after interning, so concurrent readers need no locking.
// All source_* metrics (docs/OBSERVABILITY.md) count logical events and
// are deterministic across worker counts.
package source

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"wasabi/internal/obs"
)

// DefaultKeepGenerations is how many content versions of one path a
// Store retains. Two covers the daemon's steady state — the
// version in flight plus the edit that just landed — while bounding
// memory under a long edit history.
const DefaultKeepGenerations = 2

// IsSourceFile reports whether a directory entry counts as application
// source for the static workflows. Tests are excluded; suite.go and
// workload.go hold an app's registered unit tests and manifest.go the
// evaluation ground truth — none of them is application source. Every
// consumer of a Snapshot (sast, llm review keying, cache manifests)
// shares this predicate, so content addresses cover exactly the files
// analyzed.
func IsSourceFile(name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	return name != "suite.go" && name != "workload.go" && name != "manifest.go"
}

// File is one loaded source file: bytes and content address computed at
// intern time, the AST built lazily on first Syntax call. Fields are
// immutable after interning; concurrent readers share them freely.
type File struct {
	// Name is the file basename.
	Name string
	// Path is the full path the file was loaded from.
	Path string
	// Bytes is the raw file content.
	Bytes []byte
	// SHA256 is the lowercase hex SHA-256 of Bytes — the content address
	// review keys, directory manifests and facts entries derive from.
	SHA256 string
	// Size is len(Bytes) as an int64 (the manifest shape).
	Size int64
	// Fset is the store-wide FileSet AST positions resolve against.
	Fset *token.FileSet

	store *Store

	parseOnce sync.Once
	syntax    *ast.File
	parseErr  error

	mu   sync.Mutex
	memo map[string]any
}

// Syntax returns the parsed AST, building it on first call (counted in
// source_parse_total) and memoizing both the tree and any parse error
// for the file's lifetime. The warm static tier never calls it — facts
// hydrate from the cache — so a restart-warm job runs at zero parses;
// anything that genuinely needs positions or declarations (fresh
// extraction, the LLM reviewer's evidence pass) pays for exactly the
// files it touches.
func (f *File) Syntax() (*ast.File, error) {
	f.parseOnce.Do(func() {
		f.syntax, f.parseErr = parser.ParseFile(f.Fset, f.Path, f.Bytes, parser.ParseComments)
		if f.parseErr != nil {
			f.syntax = nil
		}
		f.store.reg.Counter("source_parse_total").Inc()
	})
	return f.syntax, f.parseErr
}

// MemoThrough returns the derived artifact registered under kind,
// computing it at most once per file version. This is the hook the
// file-granular static tier hangs off: extraction results keyed by
// content survive across runs in a long-lived store, so a warm daemon
// recomputes them only for files that changed. When the in-memory memo
// misses, an optional load may first supply the artifact from an
// external tier (the disk facts cache) — counted in
// source_derived_hydrations_total — and only if both miss does compute
// run (source_derived_computes_total). compute must be a pure function
// of the file; load and compute run under the file's memo lock and must
// not call back into the same file's memo.
func (f *File) MemoThrough(kind string, load func() (any, bool), compute func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.memo[kind]; ok {
		f.store.reg.Counter("source_derived_reuse_total", "kind", kind).Inc()
		return v
	}
	if load != nil {
		if v, ok := load(); ok {
			f.memo[kind] = v
			f.store.reg.Counter("source_derived_hydrations_total", "kind", kind).Inc()
			return v
		}
	}
	v := compute()
	f.memo[kind] = v
	f.store.reg.Counter("source_derived_computes_total", "kind", kind).Inc()
	return v
}

// Snapshot is one directory's loaded state: every source file, sorted by
// name, interned against the store's shared FileSet.
type Snapshot struct {
	// Dir is the directory the snapshot describes.
	Dir string
	// Fset resolves positions for every Files[i].Syntax() tree.
	Fset *token.FileSet
	// Files are the directory's source files in sorted name order.
	Files []*File
}

// TotalBytes sums the snapshot's file sizes.
func (s *Snapshot) TotalBytes() int64 {
	var n int64
	for _, f := range s.Files {
		n += f.Size
	}
	return n
}

// Names returns the file basenames in snapshot (sorted) order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.Files))
	for i, f := range s.Files {
		out[i] = f.Name
	}
	return out
}

// Store interns loaded files by (path, content hash). The zero value is
// not usable; call NewStore. A Store may live for one run (the CLI) or
// across many (the daemon shares one across jobs, which is where the
// incremental wins come from).
//
// Per path, only the latest DefaultKeepGenerations versions are
// retained; older versions are evicted wholesale — bytes, AST, memoized
// artifacts — under the store lock.
type Store struct {
	reg  *obs.Registry
	fset *token.FileSet

	mu            sync.Mutex
	entries       map[string]*File
	gens          map[string][]string // path → entry keys, oldest first
	retainedBytes int64
}

// NewStore returns an empty store reporting into reg (nil disables
// metrics), retaining DefaultKeepGenerations content versions per path.
func NewStore(reg *obs.Registry) *Store {
	return &Store{
		reg:     reg,
		fset:    token.NewFileSet(),
		entries: make(map[string]*File),
		gens:    make(map[string][]string),
	}
}

// Fset returns the store-wide FileSet.
func (s *Store) Fset() *token.FileSet { return s.fset }

// Load reads every source file of dir — exactly once each — and returns
// the snapshot. Bytes are read and hashed on every call (that is how
// change detection works); the interned artifact and everything derived
// from it are reused when the content hash matches a previously interned
// version. Nothing is parsed here: unparseable files surface their error
// from Syntax, and each consumer decides (sast fails, llm degrades to
// "no answer").
func (s *Store) Load(dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	snap := &Snapshot{Dir: dir, Fset: s.fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !IsSourceFile(name) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("source: %w", err)
		}
		s.reg.Counter("source_files_loaded_total").Inc()
		s.reg.Counter("source_bytes_total").Add(int64(len(data)))
		snap.Files = append(snap.Files, s.intern(path, name, data))
	}
	return snap, nil
}

// intern returns the canonical File for (path, content), creating it on
// first sight of this content version and reusing the artifact
// afterwards. Interning a new version beyond the retention bound evicts
// the path's oldest generation.
func (s *Store) intern(path, name string, data []byte) *File {
	sum := sha256.Sum256(data)
	key := path + "\x00" + hex.EncodeToString(sum[:])
	s.mu.Lock()
	f, ok := s.entries[key]
	if !ok {
		f = &File{
			Name:   name,
			Path:   path,
			Bytes:  data,
			SHA256: hex.EncodeToString(sum[:]),
			Size:   int64(len(data)),
			Fset:   s.fset,
			store:  s,
			memo:   make(map[string]any),
		}
		s.entries[key] = f
		s.retainedBytes += f.Size
	}
	s.touchGeneration(path, key)
	s.reg.Gauge("source_store_files").Set(float64(len(s.entries)))
	s.reg.Gauge("source_retained_bytes").Set(float64(s.retainedBytes))
	s.mu.Unlock()
	if ok {
		s.reg.Counter("source_reuse_total").Inc()
	}
	return f
}

// touchGeneration marks key as path's most recent generation and evicts
// generations beyond the retention bound. Called with s.mu held.
func (s *Store) touchGeneration(path, key string) {
	g := s.gens[path]
	for i, k := range g {
		if k == key {
			g = append(g[:i], g[i+1:]...)
			break
		}
	}
	g = append(g, key)
	for len(g) > DefaultKeepGenerations {
		victim := g[0]
		g = g[1:]
		if vf, ok := s.entries[victim]; ok {
			delete(s.entries, victim)
			s.retainedBytes -= vf.Size
			s.reg.Counter("source_evictions_total").Inc()
		}
	}
	s.gens[path] = g
}
