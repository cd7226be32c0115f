// Command unusedcheck is the repo's dead-code lint: it flags unexported
// package-level funcs, types, vars and consts that nothing in their package
// references, test files included. Code that no caller reaches is code every
// reader still has to read, so the check runs as part of `make lint`.
//
// Built on go/parser alone (no go/types): a declaration counts as used when
// any identifier with its name appears in the package outside the
// declaration itself. That over-approximates use — a field, method or local
// that shares the name also counts — so the lint can miss dead code but
// never flags live code. Methods are not checked (an interface can reach
// them without naming them), and nested modules (directories with their own
// go.mod) are skipped.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "module root to scan")
	flag.Parse()

	bad := 0
	err := filepath.WalkDir(*root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != *root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		findings, err := checkDir(path)
		if err != nil {
			return err
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		bad += len(findings)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "unusedcheck: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "unusedcheck: %d unused declaration(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir reports the unused unexported declarations of every package in
// dir (a directory holds a package and possibly its external test package).
func checkDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkgs[f.Name.Name] = append(pkgs[f.Name.Name], f)
	}
	var findings []string
	for _, files := range pkgs {
		findings = append(findings, unused(fset, files)...)
	}
	sort.Strings(findings)
	return findings, nil
}

// unused returns one finding per unexported package-level declaration in
// files that no other identifier in files names.
func unused(fset *token.FileSet, files []*ast.File) []string {
	type decl struct {
		kind string
		id   *ast.Ident
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	add := func(kind string, id *ast.Ident) {
		if id.Name == "_" || id.Name == "init" || id.Name == "main" || ast.IsExported(id.Name) {
			return
		}
		decls = append(decls, decl{kind, id})
		declIdents[id] = true
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(d.Tok.String(), id)
						}
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var out []string
	for _, d := range decls {
		if !used[d.id.Name] {
			out = append(out, fmt.Sprintf("%s: unused %s %s", fset.Position(d.id.Pos()), d.kind, d.id.Name))
		}
	}
	return out
}
