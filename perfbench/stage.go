package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/corpusgen"
	"wasabi/internal/source"
)

// stageRoot is where every input the program sees is staged. It is
// relative to the directory the benchmark runs from (the checkout
// root), and the program is handed relative paths under it: the
// simulated LLM's draws and the review-cache keys hash file paths, so
// an absolute root would make findings depend on where the checkout
// lives.
const stageRoot = ".perfbench/stage"

// genSeed and genScale fix the generated corpus of gen-edit: 80 apps
// and 980 source files. The corpus is the system's input, not the
// workload draw, so it does not follow --seed; the edits do.
const (
	genSeed  = 1
	genScale = 10
)

// markerWidth is the byte length of the trailing stamp line every
// staged source file ends with. An edit rewrites only the stamp's
// digits, so file sizes, token counts and every line position stay
// fixed, and the stamp carries no retry vocabulary.
const markerWidth = len("// perfbench stamp 00000000000000000000\n")

// marker renders the stamp line for v.
func marker(v uint64) []byte {
	return []byte(fmt.Sprintf("// perfbench stamp %020d\n", v))
}

// stagedFile is one source file the workloads may edit.
type stagedFile struct {
	App  string // app code
	Path string // relative path under stageRoot
}

// staged is a staged corpus: apps whose Dir points under stageRoot, and
// the editable files.
type staged struct {
	Apps  []corpus.App
	Files []stagedFile
}

// resetStage removes and recreates dir under stageRoot.
func resetStage(name string) (string, error) {
	dir := filepath.Join(stageRoot, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// stageSeedCorpus copies the seed corpus's analysed sources into
// stageRoot/<name>, stamps each with a seeded marker, and re-points
// every App.Dir at the copy. The suites and manifests are compiled in
// and stay as they are.
func stageSeedCorpus(name string, rng *rand.Rand) (*staged, error) {
	root, err := resetStage(name)
	if err != nil {
		return nil, err
	}
	out := &staged{}
	for _, app := range corpus.Apps() {
		dir := filepath.Join(root, strings.ToLower(app.Code))
		if err := out.stampCopy(app.Code, app.Dir, dir, rng); err != nil {
			return nil, err
		}
		app.Dir = dir
		out.Apps = append(out.Apps, app)
	}
	return out, nil
}

// stageGenCorpus generates the fixed synthetic corpus into
// stageRoot/<name> and stamps every source file with a seeded marker.
func stageGenCorpus(name string, rng *rand.Rand) (*staged, error) {
	root, err := resetStage(name)
	if err != nil {
		return nil, err
	}
	c, err := corpusgen.Generate(corpusgen.Config{Seed: genSeed, Scale: genScale})
	if err != nil {
		return nil, err
	}
	if err := corpusgen.Write(c, root, 1); err != nil {
		return nil, err
	}
	apps, _, err := corpusgen.LoadApps(root)
	if err != nil {
		return nil, err
	}
	out := &staged{Apps: apps}
	for _, app := range apps {
		if err := out.stampCopy(app.Code, app.Dir, app.Dir, rng); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stampCopy writes every analysed source file of src to dst (which may
// be src) with a seeded marker appended, and records it as editable.
func (s *staged) stampCopy(code, src, dst string, rng *rand.Rand) error {
	names, err := sourceNames(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			return err
		}
		p := filepath.Join(dst, n)
		if err := os.WriteFile(p, stamp(data, rng.Uint64()), 0o644); err != nil {
			return err
		}
		s.Files = append(s.Files, stagedFile{App: code, Path: p})
	}
	return nil
}

// sourceNames lists the analysed source files of dir, sorted.
func sourceNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no source files in %s", dir)
	}
	return names, nil
}

// stamp appends the marker line for v to data.
func stamp(data []byte, v uint64) []byte {
	out := append([]byte(nil), data...)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	return append(out, marker(v)...)
}

// restamp rewrites a staged file's trailing marker to v. The new
// content goes to a temporary file outside every app directory and is
// renamed over the original, so a concurrent reader (a job of the
// serve-mix workload) sees either version whole, never a torn file.
func restamp(path string, v uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n := len(data) - markerWidth
	if n < 0 || !bytes.HasPrefix(data[n:], []byte("// perfbench stamp ")) {
		return fmt.Errorf("restamp %s: no trailing marker", path)
	}
	data = append(data[:n], marker(v)...)
	tmpDir := filepath.Join(stageRoot, "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(tmpDir, "edit-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
