package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mdNameRe matches a markdown file name in prose: README.md, docs/API.md,
// ../../docs/API.md.
var mdNameRe = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// unknownMDNames returns the markdown file names in text that name none of
// mds, the repository's markdown files as slash paths from its root. A name
// may drop leading directories (ARCHITECTURE.md) or climb to the root
// first (../../README.md).
func unknownMDNames(text string, mds []string) []string {
	var bad []string
	for _, name := range mdNameRe.FindAllString(text, -1) {
		rel := name
		for strings.HasPrefix(rel, "../") || strings.HasPrefix(rel, "./") {
			_, rel, _ = strings.Cut(rel, "/")
		}
		if !slices.ContainsFunc(mds, func(md string) bool { return md == rel || strings.HasSuffix(md, "/"+rel) }) {
			bad = append(bad, name)
		}
	}
	return bad
}

func TestUnknownMDNames(t *testing.T) {
	mds := []string{"README.md", "docs/API.md", "docs/ARCHITECTURE.md"}
	text := "see README.md, docs/API.md#routes, ../../docs/API.md and ARCHITECTURE.md's notes; " +
		"not DESIGN.md §3, docs/MISSING.md or API.md.go"
	got := strings.Join(unknownMDNames(text, mds), " ")
	if want := "DESIGN.md docs/MISSING.md"; got != want {
		t.Fatalf("unknown names %q, want %q", got, want)
	}
}

// TestGoCommentsNameRepoMarkdown fails when a comment in a .go file of the
// repository names a markdown file that the repository does not have.
func TestGoCommentsNameRepoMarkdown(t *testing.T) {
	var mds, gos []string
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(repoRoot, path)
		switch filepath.Ext(path) {
		case ".md":
			mds = append(mds, filepath.ToSlash(rel))
		case ".go":
			gos = append(gos, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(mds, "docs/ARCHITECTURE.md") || len(gos) == 0 {
		t.Fatalf("walked %d markdown and %d Go files from %s without docs/ARCHITECTURE.md; did the layout change?", len(mds), len(gos), repoRoot)
	}
	fset := token.NewFileSet()
	for _, path := range gos {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, name := range unknownMDNames(c.Text, mds) {
					t.Errorf("%s: a comment names %s, which the repository does not have", fset.Position(c.Pos()), name)
				}
			}
		}
	}
}
