package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that cite peacebench experiments, tests
// and benchmarks by name, relative to the module root. The Makefile is
// one: a -run or -bench pattern that names no test matches nothing, and
// go test skips it without a word.
var citingDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/PROTOCOL.md", "Makefile"}

var (
	// expCitation is a peacebench -exp argument: one name or a comma list.
	expCitation = regexp.MustCompile(`-exp[ =]+([a-z0-9]+(?:,[a-z0-9]+)*)`)
	// testCitation is a Go test, fuzz target or benchmark named by its
	// function.
	testCitation = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*`)
	// groupCitation is a -run or -bench group such as Test(A|B), which
	// names TestA and TestB.
	groupCitation = regexp.MustCompile(`\b(Test|Fuzz|Benchmark)\(([\w|]+)\)`)
)

// citedTests returns the tests, fuzz targets and benchmarks a line names,
// singly or in groups.
func citedTests(line string) []string {
	names := testCitation.FindAllString(line, -1)
	for _, m := range groupCitation.FindAllStringSubmatch(line, -1) {
		for _, alt := range strings.Split(m[2], "|") {
			names = append(names, m[1]+alt)
		}
	}
	return names
}

// TestDocsCiteLiveNames fails when a document cites an -exp name that is
// not in experimentList, or a TestX, FuzzX or BenchmarkX, alone or in a
// Test(X|Y) group, that no _test.go file of the module declares.
func TestDocsCiteLiveNames(t *testing.T) {
	root := filepath.Join("..", "..")
	known := map[string]bool{"all": true}
	for _, e := range experimentList {
		known[e.name] = true
	}
	declared := declaredTests(t, root)
	if !declared["TestDocsCiteLiveNames"] {
		t.Fatal("the declaration walk missed this very test")
	}
	for _, doc := range citingDocs {
		buf, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, m := range expCitation.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], ",") {
					if !known[name] {
						t.Errorf("%s:%d cites -exp %s; peacebench runs %s", doc, i+1, name, experimentNames())
					}
				}
			}
			for _, name := range citedTests(line) {
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, name)
				}
			}
		}
	}
}

// declaredTests parses every _test.go file under root and returns the
// names of the Test, Fuzz and Benchmark functions they declare.
func declaredTests(t *testing.T, root string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testCitation.MatchString(fn.Name.Name) {
				out[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
