package transport_test

// The control plane's godoc is part of the reproduction: exported types
// and functions in internal/server and internal/transport/... anchor the
// implementation back to paper sections (Section 4/6, Appendix E), so an
// undocumented export is a regression. This lint walks the AST of the
// control-plane packages (plus internal/compress, the wire-compression
// subsystem) and fails on any exported declaration without a
// doc comment, and on any exported type/func whose comment does not start
// with its name (the go doc convention, which keeps anchors findable).
// CI's vet+gofmt steps handle mechanics; this handles the contract.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

var doclintDirs = []string{
	".",             // internal/transport
	"wire",          // internal/transport/wire
	"streamcore",    // internal/transport/streamcore (the networked fabric)
	"httptransport", // internal/transport/httptransport
	"tcptransport",  // internal/transport/tcptransport
	"../server",     // internal/server
	"../compress",   // internal/compress
	"../scenario",   // internal/scenario
	"../client",     // internal/client (edge runtime and the fleet driver)
	"../obs",        // internal/obs (observability plane)
	"../metrics",    // internal/metrics (histogram/vec primitives)
	"../dp",         // internal/dp (differential privacy tier)
}

func TestExportedSymbolsAreDocumented(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range doclintDirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				lintFile(t, fset, file)
			}
		}
	}
}

func lintFile(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && !receiverExported(d.Recv) {
				continue
			}
			checkDoc(t, fset, d.Pos(), d.Name.Name, d.Doc, true)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					doc := s.Doc
					if doc == nil {
						doc = d.Doc
					}
					checkDoc(t, fset, s.Pos(), s.Name.Name, doc, true)
				case *ast.ValueSpec:
					// Exported vars/consts: a doc on the group or the spec
					// suffices; grouped declarations ("Errors surfaced to
					// callers.") don't repeat each name.
					for _, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						if d.Doc == nil && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported %s has no doc comment",
								fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
	}
}

func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if gen, ok := typ.(*ast.IndexExpr); ok {
		typ = gen.X
	}
	ident, ok := typ.(*ast.Ident)
	return ok && ident.IsExported()
}

func checkDoc(t *testing.T, fset *token.FileSet, pos token.Pos, name string, doc *ast.CommentGroup, wantNamePrefix bool) {
	t.Helper()
	if doc == nil || strings.TrimSpace(doc.Text()) == "" {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), name)
		return
	}
	if !wantNamePrefix {
		return
	}
	first := strings.Fields(doc.Text())
	if len(first) == 0 || first[0] != name {
		t.Errorf("%s: doc comment for %s must start with %q (go doc convention), got %q",
			fset.Position(pos), name, name, strings.Join(firstN(first, 4), " "))
	}
}

func firstN(words []string, n int) []string {
	if len(words) < n {
		return words
	}
	return words[:n]
}
