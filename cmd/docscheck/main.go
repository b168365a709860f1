// Command docscheck is the documentation gate behind `make docs-check`.
//
// It enforces two invariants the repo's docs depend on:
//
//   - godoc coverage: every package (the root llmsql facade and everything
//     under internal/) carries a package comment, and the exported
//     identifiers of the API-surface packages (core, llm, plan, storage,
//     exec) all carry doc comments — types, functions and methods alike.
//
//   - README flag tables: the markdown tables committed inside
//     <!-- flags:NAME --> ... <!-- /flags:NAME --> markers must be
//     byte-identical to the output of the matching binary's -print-flags
//     mode, so documented flags can never drift from the real ones. The
//     Makefile regenerates the live output and passes it in via -flags.
//
//   - flag prose: every inline code span in the README and DESIGN.md that
//     names a flag (`-view-ttl K`, `-chaos-error/-chaos-spike`) must name one
//     that some binary's -print-flags table lists, so deleting a flag
//     cannot leave prose recommending it.
//
// Usage:
//
//	docscheck [-root DIR] [-readme README.md -flags name=file,name=file]
//
// Exit status is non-zero with one line per violation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// apiPackages are the packages whose exported identifiers must all carry
// doc comments (the rest only need package comments).
var apiPackages = map[string]bool{"core": true, "llm": true, "plan": true, "storage": true, "exec": true}

func main() {
	var (
		root      = flag.String("root", ".", "repository root to lint")
		readme    = flag.String("readme", "", "README file whose committed flag tables are verified (empty = skip)")
		flagFiles = flag.String("flags", "", "comma-separated name=file pairs: live -print-flags output per binary, diffed against the README's <!-- flags:name --> section")
	)
	flag.Parse()

	var problems []string
	problems = append(problems, lintPackages(*root)...)
	if *readme != "" {
		tableProblems, live := checkFlagTables(*readme, *flagFiles)
		problems = append(problems, tableProblems...)
		problems = append(problems, checkFlagProse(live, *readme, filepath.Join(*root, "DESIGN.md"))...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: OK")
}

// lintPackages checks the root package and every package under internal/.
func lintPackages(root string) []string {
	dirs := []string{root}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return []string{fmt.Sprintf("read internal/: %v", err)}
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, "internal", e.Name()))
		}
	}

	var problems []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") || name == "main" && dir == root {
				continue
			}
			problems = append(problems, lintPackage(fset, dir, name, pkg)...)
		}
	}
	sort.Strings(problems)
	return problems
}

// lintPackage checks one parsed package: a package comment always, and
// full exported-identifier coverage for the API-surface packages.
func lintPackage(fset *token.FileSet, dir, name string, pkg *ast.Package) []string {
	var problems []string
	hasDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasDoc = true
		}
	}
	if !hasDoc {
		problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, name))
	}
	if !apiPackages[name] {
		return problems
	}
	filenames := make([]string, 0, len(pkg.Files))
	for fname := range pkg.Files {
		filenames = append(filenames, fname)
	}
	sort.Strings(filenames)
	for _, fname := range filenames {
		for _, decl := range pkg.Files[fname].Decls {
			problems = append(problems, lintDecl(fset, decl)...)
		}
	}
	return problems
}

// lintDecl reports exported identifiers of one top-level declaration that
// lack doc comments.
func lintDecl(fset *token.FileSet, decl ast.Decl) []string {
	var problems []string
	at := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d", p.Filename, p.Line)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		if recv := receiverType(d); recv != "" {
			if !ast.IsExported(recv) {
				return nil // method on an unexported type
			}
			return []string{fmt.Sprintf("%s: method %s.%s has no doc comment", at(d.Pos()), recv, d.Name.Name)}
		}
		return []string{fmt.Sprintf("%s: func %s has no doc comment", at(d.Pos()), d.Name.Name)}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					problems = append(problems, fmt.Sprintf("%s: type %s has no doc comment", at(s.Pos()), s.Name.Name))
				}
			case *ast.ValueSpec:
				// A doc comment on the grouped decl covers every const/var
				// inside it (the common iota-block idiom).
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						problems = append(problems, fmt.Sprintf("%s: %s has no doc comment", at(n.Pos()), n.Name))
					}
				}
			}
		}
	}
	return problems
}

// receiverType names a method's receiver base type ("" for plain funcs).
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}

// checkFlagTables verifies the README's committed flag tables against the
// live -print-flags output files, and returns those files' text joined.
func checkFlagTables(readmePath, pairs string) (problems []string, live string) {
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return []string{err.Error()}, ""
	}
	var all strings.Builder
	for _, pair := range strings.Split(pairs, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, file, ok := strings.Cut(pair, "=")
		if !ok {
			problems = append(problems, fmt.Sprintf("-flags entry %q is not name=file", pair))
			continue
		}
		table, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		all.Write(table)
		committed, err := markedSection(string(readme), name)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", readmePath, err))
			continue
		}
		if strings.TrimSpace(committed) != strings.TrimSpace(string(table)) {
			problems = append(problems, fmt.Sprintf(
				"%s: flag table %q is stale — regenerate with `go run ./cmd/%s -print-flags` and paste it between the <!-- flags:%s --> markers",
				readmePath, name, name, name))
		}
	}
	return problems, all.String()
}

var (
	// tableFlag matches a flag's row in a -print-flags table.
	tableFlag = regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)`")
	// proseFlag matches a word of prose that spells a flag.
	proseFlag = regexp.MustCompile(`^-([a-z][a-z0-9-]*)$`)
	// fence matches a fenced code block.
	fence = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```[^\n]*")
)

// checkFlagProse reports every flag the markdown files' inline code spans
// name that no live flag table lists. Backticks pair up in document order
// outside fenced blocks, so a span may wrap a line and the text between two
// spans (`?`-vs-`$n`) is prose. A span names a flag in each /-separated part
// that starts with one: `-view-ttl K` names -view-ttl,
// `-chaos-error/-chaos-spike` both.
func checkFlagProse(live string, paths ...string) []string {
	known := map[string]bool{}
	for _, m := range tableFlag.FindAllStringSubmatch(live, -1) {
		known[m[1]] = true
	}
	var problems []string
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		prose := fence.ReplaceAllStringFunc(string(text), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		line := 1
		for i, seg := range strings.Split(prose, "`") {
			for _, part := range strings.Split(seg, "/") {
				word, _, _ := strings.Cut(strings.TrimSpace(part), " ")
				if m := proseFlag.FindStringSubmatch(word); i%2 == 1 && m != nil && !known[m[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: `-%s` is not a flag of any binary", path, line, m[1]))
				}
			}
			line += strings.Count(seg, "\n")
		}
	}
	return problems
}

// markedSection extracts the text between <!-- flags:name --> and
// <!-- /flags:name --> markers.
func markedSection(text, name string) (string, error) {
	open := fmt.Sprintf("<!-- flags:%s -->", name)
	close := fmt.Sprintf("<!-- /flags:%s -->", name)
	_, rest, ok := strings.Cut(text, open)
	if !ok {
		return "", fmt.Errorf("marker %s not found", open)
	}
	section, _, ok := strings.Cut(rest, close)
	if !ok {
		return "", fmt.Errorf("marker %s not found", close)
	}
	return section, nil
}
