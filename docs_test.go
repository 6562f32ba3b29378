package parimg_test

import (
	"fmt"
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

// godocPackages are the packages whose exported identifiers must all carry
// doc comments — the public API and the packages this PR series owns the
// documentation bar for.
var godocPackages = []string{".", "internal/par", "internal/obs", "internal/cli", "internal/serve", "internal/stream"}

// TestGodocCoverage fails on any exported top-level identifier — function,
// method on an exported type, type, constant or variable — that has no doc
// comment. A doc comment on a grouped const/var/type block covers the whole
// block. This is the CI gate behind the godoc satellite: undocumented
// exports cannot land.
func TestGodocCoverage(t *testing.T) {
	var missing []string
	fset := token.NewFileSet()
	for _, dir := range godocPackages {
		for _, decl := range parseDecls(t, fset, dir) {
			missing = append(missing, undocumented(fset, decl)...)
		}
	}
	for _, m := range missing {
		t.Errorf("undocumented export: %s", m)
	}
}

// parseDecls returns the top-level declarations of the non-test files in
// dir.
func parseDecls(t *testing.T, fset *token.FileSet, dir string) []ast.Decl {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var decls []ast.Decl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			decls = append(decls, f.Decls...)
		}
	}
	return decls
}

// TestReadmeNamesExist fails when a fenced Go block in README.md refers to
// parimg.X and X is not an exported top-level identifier of the root
// package, so a snippet cannot keep calling an entry point that was
// renamed or deleted.
func TestReadmeNamesExist(t *testing.T) {
	exported := map[string]bool{}
	add := func(id *ast.Ident) { exported[id.Name] = id.IsExported() }
	for _, decl := range parseDecls(t, token.NewFileSet(), ".") {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n)
					}
				}
			}
		}
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)```go\n(.*?)```")
	ref := regexp.MustCompile(`\bparimg\.(\w+)`)
	blocks := block.FindAllStringSubmatch(string(data), -1)
	if len(blocks) == 0 {
		t.Fatal("README.md has no fenced Go blocks")
	}
	for _, b := range blocks {
		for _, m := range ref.FindAllStringSubmatch(b[1], -1) {
			if !exported[m[1]] {
				t.Errorf("README.md Go block uses parimg.%s, which the root package does not export", m[1])
			}
		}
	}
}

// undocumented returns the exported, doc-comment-free identifiers of one
// top-level declaration, as "file:line name" strings.
func undocumented(fset *token.FileSet, decl ast.Decl) []string {
	var out []string
	at := func(pos token.Pos, name string) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d %s", p.Filename, p.Line, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return nil
		}
		if d.Doc == nil {
			name := d.Name.Name
			if r := receiverName(d); r != "" {
				name = r + "." + name
			}
			out = append(out, at(d.Pos(), name))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					out = append(out, at(s.Pos(), s.Name.Name))
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						out = append(out, at(n.Pos(), n.Name))
					}
				}
			}
		}
	}
	return out
}

// receiverName returns the bare type name of a method receiver, "" for
// plain functions.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	for {
		switch u := typ.(type) {
		case *ast.StarExpr:
			typ = u.X
		case *ast.IndexExpr:
			typ = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}

// receiverExported reports whether d is a plain function or a method on an
// exported type; methods on unexported types need no doc comments.
func receiverExported(d *ast.FuncDecl) bool {
	name := receiverName(d)
	return name == "" || ast.IsExported(name)
}

// TestMarkdownLinks checks every relative link target in the repo's main
// documents: the file a link names must exist. External http(s) links and
// same-document anchors are not fetched.
func TestMarkdownLinks(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range link.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			path, _, _ := strings.Cut(target, "#")
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s links to missing file %q", doc, target)
			}
		}
	}
}

// TestExperimentsPhasereportSection pins that the committed EXPERIMENTS.md
// still contains a generated phasereport section covering every catalog
// pattern plus the DARPA scene — the tables go stale silently otherwise.
func TestExperimentsPhasereportSection(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	b := strings.Index(text, "<!-- phasereport:begin -->")
	e := strings.Index(text, "<!-- phasereport:end -->")
	if b < 0 || e < 0 || e < b {
		t.Fatal("EXPERIMENTS.md lost its phasereport markers")
	}
	section := text[b:e]
	for _, want := range []string{
		"horizontal-bars", "vertical-bars", "forward-diagonal-bars",
		"back-diagonal-bars", "cross", "filled-disc", "concentric-circles",
		"four-squares", "dual-spiral", "darpa",
		"Modeled", "Measured", "strip label", "border merge",
	} {
		if !strings.Contains(section, want) {
			t.Errorf("phasereport section is missing %q; rerun make experiments", want)
		}
	}
}
