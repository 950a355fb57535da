// snapshot.go is the parse-once entry point of the traditional static
// analysis: AnalyzeSnapshotWith consumes a pre-loaded source.Snapshot
// instead of re-reading and re-parsing the directory, and splits the
// work file-granularly — per-file extraction is memoized on the
// snapshot file by content hash (File.MemoThrough) and hydrated from
// the portable facts tier (facts.go) when one is attached, so a warm
// daemon re-extracts only files whose bytes changed and a restart-warm
// daemon extracts nothing at all — followed by the cheap cross-file
// merge (package-qualified naming and the retry-loop analysis, which
// must see every method to resolve callees).
package sast

import (
	"fmt"
	"go/ast"

	"wasabi/internal/source"
)

// ExtractKind is the File.MemoThrough key of the per-file extraction artifact
// (the source_derived_*_total{kind=...} metrics label).
const ExtractKind = "sast-extract"

// factsResult is the memoized extraction outcome: facts, or the parse
// error that prevented them. Errors memoize too — content-addressed
// files fail identically every time.
type factsResult struct {
	ff  *FileFacts
	err error
}

// fileFactsOf returns the file's extraction facts, in preference order:
// the in-memory memo (warm run), the facts store (restart-warm run —
// no parse), or a fresh extraction from the AST (cold run or edit).
func fileFactsOf(f *source.File, store FactsStore) (*FileFacts, error) {
	v := f.MemoThrough(ExtractKind,
		func() (any, bool) {
			if store == nil {
				return nil, false
			}
			ff, ok := store.GetFacts(f.SHA256)
			if !ok {
				return nil, false
			}
			return &factsResult{ff: ff}, true
		},
		func() any {
			ff, err := extractFacts(f)
			if err != nil {
				return &factsResult{err: err}
			}
			if store != nil {
				store.PutFacts(f.SHA256, ff)
			}
			return &factsResult{ff: ff}
		})
	r := v.(*factsResult)
	return r.ff, r.err
}

// extractFacts builds the portable facts of one file from its AST — the
// only place the static tier parses.
func extractFacts(f *source.File) (*FileFacts, error) {
	syntax, err := f.Syntax()
	if err != nil {
		return nil, err
	}
	ff := &FileFacts{Schema: FactsSchema, Hash: f.SHA256, Pkg: syntax.Name.Name}
	for _, d := range syntax.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn := FuncFacts{
			Key:     funcKey(fd),
			Throws:  parseThrows(fd.Doc),
			HasHook: callsFaultHook(fd.Body),
			Calls:   callNamesIn(fd.Body),
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !catchReachesHeader(body) {
				return true
			}
			lf := LoopFacts{
				Line:      f.Fset.Position(n.Pos()).Line,
				Keyworded: hasRetryKeyword(n),
			}
			if lf.Keyworded {
				lf.Excluded = sortedClasses(excludedExceptions(body))
				lf.Calls = callNamesIn(body)
			}
			fn.Loops = append(fn.Loops, lf)
			return true
		})
		ff.Funcs = append(ff.Funcs, fn)
	}
	return ff, nil
}

// AnalyzeSnapshotWith runs the retry-loop analysis over a pre-loaded
// snapshot. Per-file facts come from the snapshot's memo, hydrate from
// store by content hash (a nil store disables hydration), or — only
// when both miss — extract from the AST. Over an unchanged corpus with
// a populated store, it parses nothing; only the cross-file merge
// (naming, callee resolution, loop analysis) runs unconditionally, and
// its output is byte-identical whichever path supplied the facts.
func AnalyzeSnapshotWith(snap *source.Snapshot, store FactsStore) (*Analysis, error) {
	a := &Analysis{
		Files:   make(map[string]int),
		Methods: make(map[string]*Method),
	}
	facts := make([]*FileFacts, len(snap.Files))
	for i, f := range snap.Files {
		ff, err := fileFactsOf(f, store)
		if err != nil {
			return nil, fmt.Errorf("sast: %w", err)
		}
		facts[i] = ff
		a.Pkg = ff.Pkg
		a.Files[f.Name] = int(f.Size)
	}
	for i, f := range snap.Files {
		for j := range facts[i].Funcs {
			fn := &facts[i].Funcs[j]
			m := &Method{
				Name:    a.Pkg + "." + fn.Key,
				File:    f.Name,
				Throws:  fn.Throws,
				HasHook: fn.HasHook,
				calls:   fn.Calls,
				loops:   fn.Loops,
			}
			a.Methods[m.Name] = m
		}
	}
	a.findRetryLoops()
	return a, nil
}
