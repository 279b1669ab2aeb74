package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// ExportedDoc is the docs-freshness gate, folded in from the former
// cmd/doccheck: every package needs a package comment (main packages
// excepted) and every exported symbol a doc comment, so godoc
// coverage cannot silently rot. Run it alone with
// "go run ./cmd/eblocksvet -run exporteddoc ./...".
var ExportedDoc = &Analyzer{
	Name: "exporteddoc",
	Doc: "packages need a package comment and exported symbols need doc comments " +
		"(the former cmd/doccheck gate)",
	Run: runExportedDoc,
}

func runExportedDoc(pass *Pass) error {
	hasPkgDoc := false
	for _, f := range pass.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	// Deterministic file order for stable output.
	files := append([]*ast.File(nil), pass.Files...)
	sort.Slice(files, func(i, j int) bool {
		return pass.Fset.Position(files[i].Package).Filename < pass.Fset.Position(files[j].Package).Filename
	})
	if !hasPkgDoc && pass.Pkg.Name() != "main" && len(files) > 0 {
		pass.Reportf(files[0].Package, "package %s has no package comment", pass.Pkg.Name())
	}
	for _, f := range files {
		checkFileDocs(pass, f)
	}
	return nil
}

// checkFileDocs reports undocumented exported declarations in one
// file, with the same rules the standalone doccheck enforced: a
// comment on a grouped const/var declaration covers the group, and
// methods count when the receiver's type name is exported.
func checkFileDocs(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !docReceiverExported(d) {
				continue
			}
			if d.Doc == nil {
				pass.Reportf(d.Pos(), "exported %s has no doc comment", docFuncLabel(d))
			}
		case *ast.GenDecl:
			switch d.Tok.String() {
			case "type":
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() {
						continue
					}
					if d.Doc == nil && ts.Doc == nil {
						pass.Reportf(ts.Pos(), "exported type %s has no doc comment", ts.Name.Name)
					}
				}
			case "const", "var":
				if d.Doc != nil {
					continue // a group comment covers every spec
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, n := range vs.Names {
						if n.IsExported() && vs.Doc == nil && vs.Comment == nil {
							pass.Reportf(n.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
}

// docReceiverExported reports whether a function is package-level or
// a method on an exported type (methods on unexported types are not
// part of the public godoc surface).
func docReceiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// docFuncLabel renders "function F" or "method (T).M" for
// diagnostics.
func docFuncLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "function " + d.Name.Name
	}
	t := d.Recv.List[0].Type
	recv := ""
	for recv == "" {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			recv = tt.Name
		default:
			recv = "?"
		}
	}
	return "method (" + recv + ")." + d.Name.Name
}
