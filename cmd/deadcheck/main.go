// Command deadcheck is the dead-code gate: it type-checks the
// repository from source and fails on any package-level func, method,
// type, const or var that nothing but tests names, and on any main
// package whose _test.go files declare no Test, Fuzz or Example.
//
//	go run ./cmd/deadcheck    # from the repository root; `make lint` runs it
//
// Every go.mod under the root is a module (testdata, vendor and hidden
// directories are skipped). The root module is loaded without its
// _test.go files, so a name only tests use has no caller. A nested
// module (bench/) is loaded with its tests, and every file in it counts
// as a caller: only a benchmark change may edit it, so whatever it
// names must stay. Imports between the modules resolve by module path,
// as their replace directives do; the standard library is type-checked
// from GOROOT, so the gate needs no network and no build cache.
//
// Exempt: main, init, Test*/Fuzz*/Benchmark*/Example* functions, blank
// names, and a method that satisfies some method-only interface type
// of the loaded program — the standard library's included, so Error,
// String and MarshalJSON pass. A name used only inside its own
// declaration, or only as a receiver type, has no caller.
//
// The allowlist (cmd/deadcheck/allowlist.txt) keeps the rest, one
// identifier or main package per line followed by its reason, which
// must start with one of:
//
//	roadmap <n>:      a hook kept for ROADMAP item n
//	seam <TestName>:  a test seam that test needs
//	paper <TestName>: a paper component only that test drives
//	experiment <En>:  a main whose code experiment En also runs
//
// The named test must be declared in some _test.go file of the tree.
// An entry that now has a caller, names nothing, or has no valid
// reason is stale and fails the gate too. Every problem is printed as
// file:line; the exit status follows internal/command: 1 on any
// problem, 2 on an argument.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/command"
)

func main() { command.Main("deadcheck", run) }

// run checks the tree rooted at the working directory against the
// committed allowlist.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return command.Usage(errors.New("no arguments; run from the repository root"))
	}
	l, err := load(".")
	if err != nil {
		return err
	}
	return l.report(filepath.Join("cmd", "deadcheck", "allowlist.txt"), stdout)
}

// reasonRe is the shape of an allowlist reason; its group is the test
// a seam or paper reason names.
var reasonRe = regexp.MustCompile(`^(?:roadmap \d+|(?:seam|paper) (Test\w+)|experiment E\d+): \S`)

// report writes one line per problem with the loaded tree and the
// allowlist at path allow to w, or a summary line when there is none.
func (l *loader) report(allow string, w io.Writer) error {
	dead := l.dead()
	allowed, problems, err := l.readAllow(allow)
	if err != nil {
		return err
	}
	for key, at := range allowed {
		switch {
		case dead[key] != "":
			delete(dead, key)
		case l.known[key]:
			problems = append(problems, at+key+" is allowlisted but has a caller or a test")
		default:
			problems = append(problems, at+key+" is allowlisted but names nothing")
		}
	}
	for _, p := range dead {
		problems = append(problems, p)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("FAIL, %d problem(s)", len(problems))
	}
	fmt.Fprintf(w, "deadcheck: ok: %d identifiers and main packages, %d allowlisted\n", len(l.known), len(allowed))
	return nil
}

// readAllow parses the allowlist into key -> "file:line: ", with a
// problem for every line without a valid reason, or whose reason names
// a test no _test.go file declares, and every repeat.
func (l *loader) readAllow(allow string) (map[string]string, []string, error) {
	data, err := os.ReadFile(allow)
	if err != nil {
		return nil, nil, err
	}
	allowed, problems := map[string]string{}, []string(nil)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at := fmt.Sprintf("%s:%d: ", filepath.ToSlash(allow), i+1)
		key, reason, _ := strings.Cut(line, " ")
		m := reasonRe.FindStringSubmatch(strings.TrimSpace(reason))
		switch {
		case m == nil:
			problems = append(problems, at+key+" needs a reason starting roadmap <n>:, seam <Test>:, paper <Test>: or experiment <En>:")
		case m[1] != "" && !l.tests[m[1]]:
			problems = append(problems, at+key+"'s reason names "+m[1]+", which no _test.go file declares")
		case allowed[key] != "":
			problems = append(problems, at+key+" is listed twice")
		default:
			allowed[key] = at
		}
	}
	return allowed, problems, nil
}

// A module is a go.mod's directory and module path; tests says its
// _test.go files are loaded and count as callers.
type module struct {
	dir, path string
	tests     bool
}

// A pkgDir is a directory of a module, maybe holding a package.
type pkgDir struct {
	m   module
	dir string
}

// A loader type-checks every package of the modules once, in import
// order, into one shared types.Info, so an object has one identity
// across both modules.
type loader struct {
	root  string
	fset  *token.FileSet
	ctxt  build.Context
	info  *types.Info
	mods  []module
	dirs  map[string]pkgDir         // import path -> directory, for the modules
	pkgs  map[string]*types.Package // nil while being checked
	files []*ast.File               // every loaded file; each counts as a caller
	tests map[string]bool           // every Test, Fuzz and Example function of the modules
	mains map[string]string         // main package path -> dir, for those with no test
	known map[string]bool           // every key dead reports on, dead or not
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// load finds every module under root and type-checks its packages.
func load(root string) (*loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		ctxt: build.Default,
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		dirs:  map[string]pkgDir{},
		pkgs:  map[string]*types.Package{},
		tests: map[string]bool{},
		mains: map[string]string{},
		known: map[string]bool{},
	}
	l.ctxt.CgoEnabled = false // the pure-Go std files need no C toolchain
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || n == "vendor" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir // as the go command does
		}
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
			}
			l.mods = append(l.mods, module{dir, string(m[1]), dir != root})
		}
		// The walk reaches a module before its directories, and a
		// nested module after its parent: the last ancestor owns dir.
		for i := len(l.mods) - 1; i >= 0; i-- {
			m := l.mods[i]
			if rel, err := filepath.Rel(m.dir, dir); err == nil && !strings.HasPrefix(rel, "..") {
				l.dirs[path.Join(m.path, filepath.ToSlash(rel))] = pkgDir{m, dir}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, d := range l.dirs {
		if _, err := l.check(p, d); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Import resolves an import from the root module's directory.
func (l *loader) Import(p string) (*types.Package, error) { return l.ImportFrom(p, l.root, 0) }

// ImportFrom resolves a path inside a loaded module to that module's
// package. Anything else is the standard library, type-checked from
// GOROOT without function bodies: only its declarations matter here.
func (l *loader) ImportFrom(p, dir string, _ types.ImportMode) (*types.Package, error) {
	if d, ok := l.dirs[p]; ok {
		pkg, err := l.check(p, d)
		if err == nil && pkg == nil {
			err = fmt.Errorf("no Go files in %s", d.dir)
		}
		return pkg, err
	}
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	bp, err := l.ctxt.Import(p, dir, build.FindOnly)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[bp.ImportPath]; ok {
		return pkg, nil
	}
	files, err := l.parseDir(bp.Dir, false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: true}
	pkg, err := conf.Check(bp.ImportPath, l.fset, files, nil)
	l.pkgs[bp.ImportPath] = pkg
	return pkg, err
}

// check type-checks the package in dir once, with its tests when the
// module loads them; it returns nil when dir holds no Go package.
func (l *loader) check(p string, d pkgDir) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg, nil
	}
	all, err := l.parseDir(d.dir, true)
	if err != nil {
		return nil, err
	}
	// The package's files, then its external test package's; a test
	// file of a module loaded without tests is only read for its tests.
	var files, xtests []*ast.File
	tested := false
	for _, f := range all {
		if l.isTest(f) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testRe.MatchString(fn.Name.Name) {
					l.tests[fn.Name.Name], tested = true, true
				}
			}
			if !d.m.tests {
				continue
			}
		}
		l.files = append(l.files, f)
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtests = append(xtests, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	if files[0].Name.Name == "main" {
		l.known[p] = true
		if !tested {
			l.mains[p] = d.dir
		}
	}
	l.pkgs[p] = nil
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	if len(xtests) > 0 {
		if _, err := conf.Check(p+"_test", l.fset, xtests, l.info); err != nil {
			return nil, err
		}
	}
	return pkg, nil
}

// parseDir parses the Go files of dir that match the build context,
// _test.go files too when tests is set.
func (l *loader) parseDir(dir string, tests bool) (files []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || e.IsDir() {
			continue
		}
		if ok, err := l.ctxt.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !tests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// isTest reports whether f is a _test.go file.
func (l *loader) isTest(f *ast.File) bool {
	return strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go")
}

// dead maps the key of every package-level object with no caller, and
// of every main package with no test, to its problem line.
func (l *loader) dead() map[string]string {
	used := map[types.Object]bool{}
	var declared []*ast.Ident
	for _, f := range l.files {
		test := l.isTest(f)
		for _, d := range f.Decls {
			names, body := split(d)
			if !test {
				declared = append(declared, names...)
			}
			l.mark(names, body, used)
		}
	}
	satisfying := l.satisfying()
	dead := map[string]string{}
	for p, dir := range l.mains {
		rel, _ := filepath.Rel(l.root, dir)
		dead[p] = filepath.ToSlash(rel) + ": main package " + p + " has no test"
	}
	for _, id := range declared {
		obj := l.info.Defs[id]
		key, ok := key(obj, satisfying)
		if !ok {
			continue
		}
		l.known[key] = true
		if !used[obj] {
			pos := l.fset.Position(id.Pos())
			rel, _ := filepath.Rel(l.root, pos.Filename)
			dead[key] = fmt.Sprintf("%s:%d: %s has no caller outside _test.go files", filepath.ToSlash(rel), pos.Line, key)
		}
	}
	return dead
}

// split divides a top-level declaration into the names it declares
// and the nodes that hold its uses. A method's receiver is in neither:
// a type that only its own methods name has no caller.
func split(decl ast.Decl) (names []*ast.Ident, body []ast.Node) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		names, body = []*ast.Ident{d.Name}, []ast.Node{d.Type}
		if d.Body != nil {
			body = append(body, d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name)
			case *ast.ValueSpec:
				names = append(names, s.Names...)
			}
			body = append(body, s)
		}
	}
	return names, body
}

// mark records as used every object an identifier in body names, but
// not the objects names declare: a declaration does not call itself.
func (l *loader) mark(names []*ast.Ident, body []ast.Node, used map[types.Object]bool) {
	self := map[types.Object]bool{}
	for _, n := range names {
		self[l.info.Defs[n]] = true
	}
	for _, n := range body {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := l.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && !self[obj] {
					used[obj] = true
				}
			}
			return true
		})
	}
}

// exemptRe matches the functions the toolchain calls by name, testRe
// those of them that go test runs.
var (
	exemptRe = regexp.MustCompile(`^(main|init|(Test|Fuzz|Benchmark|Example)([^\p{Ll}]\w*)?)$`)
	testRe   = regexp.MustCompile(`^(Test|Fuzz|Example)([^\p{Ll}]\w*)?$`)
)

// key names obj as path.Name or path.Type.Method; ok is false for an
// exempt object.
func key(obj types.Object, satisfying map[types.Object]bool) (string, bool) {
	fn, isFunc := obj.(*types.Func)
	if !isFunc || fn.Type().(*types.Signature).Recv() == nil {
		return obj.Pkg().Path() + "." + obj.Name(), obj.Name() != "_" && !(isFunc && exemptRe.MatchString(obj.Name()))
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return obj.Pkg().Path() + "." + recv.(*types.Named).Obj().Name() + "." + fn.Name(), !satisfying[obj]
}

// satisfying is the set of methods, promoted ones included, through
// which a named type of the modules satisfies some method-only
// interface type of the loaded program: error, the named ones of every
// package loaded, std included, and every interface literal the
// modules write.
func (l *loader) satisfying() map[types.Object]bool {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() || iface.NumMethods() == 0 {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		name := iface.Method(0).Name()
		byName[name] = append(byName[name], iface)
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, tv := range l.info.Types {
		if _, ok := tv.Type.(*types.Interface); ok {
			add(tv.Type)
		}
	}
	sat := map[types.Object]bool{}
	for _, obj := range l.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || tn.Parent() != tn.Pkg().Scope() {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, iface := range byName[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, iface) {
					continue
				}
				for j := 0; j < iface.NumMethods(); j++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), iface.Method(j).Name())
					sat[m.(*types.Func).Origin()] = true
				}
			}
		}
	}
	return sat
}
