package repro_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// citingDocs are the documents that send a reader to tests and source
// lines by name.
var citingDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

var (
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)
	citedLine = regexp.MustCompile(`\b([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*\.(?:go|md|sh|txt|yml|yaml|json|golden|mod)):(\d+)(?:[–-](\d+))?`)
	funcDecl  = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?([A-Za-z0-9_]+)`)
)

// TestDocCitations keeps the documents' citations honest: every
// Test…/Benchmark…/Fuzz… name they cite is a function declared in this
// repository's Go files, and every path:line (or path:first–last) names a
// file, from the repository root, that has that line. A name must be
// written out in full: a -run prefix or a {A,B} brace is not a test.
func TestDocCitations(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .github, build output
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range citedTest.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no Go file declares", doc, i+1, name)
				}
			}
			for _, m := range citedLine.FindAllStringSubmatch(line, -1) {
				last := m[2]
				if m[3] != "" {
					last = m[3]
				}
				n, _ := strconv.Atoi(last) // all digits
				src, err := os.ReadFile(m[1])
				if err != nil {
					t.Errorf("%s:%d cites %s: %v", doc, i+1, m[0], err)
					continue
				}
				if lines := bytes.Count(src, []byte("\n")); n > lines {
					t.Errorf("%s:%d cites %s, but %s has %d lines", doc, i+1, m[0], m[1], lines)
				}
			}
		}
	}
}

var (
	fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz[A-Z][A-Za-z0-9_]*)\(\w+ \*testing\.F\)`)
	fuzzRun  = regexp.MustCompile(`-fuzz (\S+) .*?(\./\S+?)/?$`)
	makeFuzz = regexp.MustCompile(`(?m)^fuzz:.*\n((?:\t.*\n)*)`)
)

// TestMakeFuzzRunsEveryFuzzer keeps the Makefile's fuzz target, which CI
// runs, in step with the fuzzers: it runs every func Fuzz… this module
// declares, against the package that declares it, and names no fuzzer
// that none declares. go test -fuzz passes when its package has no
// fuzzer of that name, so a stale line would fuzz nothing unnoticed.
func TestMakeFuzzRunsEveryFuzzer(t *testing.T) {
	declared := map[string]bool{} // "./dir FuzzName"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." {
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module: bench/
			}
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzDecl.FindAllSubmatch(src, -1) {
			declared["./"+filepath.ToSlash(filepath.Dir(path))+" "+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	target := makeFuzz.FindSubmatch(mk)
	if target == nil {
		t.Fatal("the Makefile has no fuzz target")
	}
	run := map[string]bool{}
	for _, line := range strings.Split(string(target[1]), "\n") {
		if m := fuzzRun.FindStringSubmatch(line); m != nil {
			run[m[2]+" "+m[1]] = true
		}
	}
	for f := range declared {
		if !run[f] {
			t.Errorf("make fuzz does not run %s", f)
		}
	}
	for f := range run {
		if !declared[f] {
			t.Errorf("make fuzz runs %s, which that package does not declare", f)
		}
	}
	if len(declared) == 0 {
		t.Error("found no fuzzers")
	}
}
