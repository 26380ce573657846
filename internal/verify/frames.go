package verify

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"slices"
	"sort"
	"strings"
)

// metricsPath is the instrument package: a field of one of its types
// is an instrument, not protocol state.
const metricsPath = "repro/internal/metrics"

// Scope names the types of one package that the frame analysis reads.
type Scope struct {
	// State lists the per-connection state structs. Their fields are
	// the variables, except navigation fields (a pointer, value or
	// interface of a State or Host type), instruments (a metrics type,
	// or a struct made only of them) and func-typed callbacks.
	State []string
	// Host lists the per-host structs, whose fields are not variables.
	Host []string
	// Sublayers lists the types whose methods bound a handler's walk
	// and own their fields (CrossSublayer).
	Sublayers []string
}

// Source is one package's Go files, type-checked without loading its
// imports: selections of the package's own fields still resolve, and
// a method call on a value of an imported type is a call on its
// operand.
type Source struct {
	scope  Scope
	fset   *token.FileSet
	info   *types.Info
	pkg    *types.Package
	funcs  []*types.Func // in source order
	bodies map[*types.Func]*body
	fields map[*types.Var]field
}

// field is a struct field declared at package level.
type field struct {
	owner string   // the declaring struct type
	typ   ast.Expr // the declared type
}

// body is what one function does directly.
type body struct {
	uses  []use
	calls []call
}

// call is one call of a function or method of the package.
type call struct {
	fn   *types.Func // the static callee, nil for an interface call
	edge string      // an interface call's "Type.method"
	pos  token.Pos
}

// use is one selection of a field.
type use struct {
	v     *types.Var
	write bool
	pos   token.Pos
}

// Load parses and type-checks the non-test Go files of directory dir
// in fsys. A field counts as written where it is assigned, incremented
// or decremented, has its address taken or is the operand of a method
// call, itself or through a part of it (x.f.g = v writes f); any other
// selection reads it.
func Load(fsys fs.FS, dir string, sc Scope) (*Source, error) {
	names, err := fs.Glob(fsys, path.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	s := &Source{
		scope: sc,
		fset:  token.NewFileSet(),
		info: &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		bodies: make(map[*types.Func]*body),
		fields: make(map[*types.Var]field),
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(s.fset, name, src, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("verify: no Go files in %s", dir)
	}
	// With no importer every import fails; the errors are those and
	// what follows from them.
	conf := types.Config{Error: func(error) {}}
	s.pkg, _ = conf.Check(dir, s.fset, files, s.info)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							s.fields[s.info.Defs[id].(*types.Var)] = field{n.Name.Name, fl.Type}
						}
					}
				}
			case *ast.FuncDecl:
				fn := s.info.Defs[n.Name].(*types.Func)
				s.funcs = append(s.funcs, fn)
				s.bodies[fn] = s.scan(n.Body)
				return false
			}
			return true
		})
	}
	return s, nil
}

// scan reads one function body.
func (s *Source) scan(fn *ast.BlockStmt) *body {
	b := &body{}
	written := make(map[*ast.SelectorExpr]bool)
	write := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				written[x] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	// Inspect visits a statement before its operands, so each write is
	// marked before its selection is seen.
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				write(l)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key)
				write(n.Value)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CallExpr:
			switch f := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fn, ok := s.info.Uses[f].(*types.Func); ok {
					b.calls = append(b.calls, call{fn: fn, pos: f.Pos()})
				}
			case *ast.SelectorExpr:
				sel, ok := s.info.Selections[f]
				switch {
				case !ok: // a qualified identifier or a method of an imported type
					x, _ := f.X.(*ast.Ident)
					if _, pkg := s.info.Uses[x].(*types.PkgName); !pkg {
						write(f.X)
					}
				case sel.Kind() != types.MethodVal: // a func-typed field: a callback
				case types.IsInterface(sel.Recv()):
					write(f.X)
					b.calls = append(b.calls, call{edge: typeName(sel.Recv()) + "." + f.Sel.Name, pos: f.Sel.Pos()})
				default:
					write(f.X)
					b.calls = append(b.calls, call{fn: sel.Obj().(*types.Func), pos: f.Sel.Pos()})
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := s.info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				b.uses = append(b.uses, use{sel.Obj().(*types.Var), written[n], n.Sel.Pos()})
			}
		}
		return true
	})
	return b
}

// funcName is "Type.method" for a method, the bare name otherwise.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return typeName(recv.Type()) + "." + fn.Name()
	}
	return fn.Name()
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// sublayer is the sublayer type fn is a method of, or "".
func (s *Source) sublayer(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && slices.Contains(s.scope.Sublayers, typeName(recv.Type())) {
		return typeName(recv.Type())
	}
	return ""
}

// isVar reports whether field v is a variable (see Scope.State).
func (s *Source) isVar(v *types.Var) bool {
	if !slices.Contains(s.scope.State, s.fields[v].owner) {
		return false
	}
	_, callback := v.Type().Underlying().(*types.Signature)
	return !callback && !s.navigates(v.Type()) && !s.instrument(v)
}

// navigates reports whether t is a State or Host type, a pointer to
// one, or an interface one of them implements.
func (s *Source) navigates(t types.Type) bool {
	iface, _ := t.Underlying().(*types.Interface)
	for _, name := range slices.Concat(s.scope.State, s.scope.Host) {
		tn, ok := s.pkg.Scope().Lookup(name).(*types.TypeName)
		if ok && (typeName(t) == name || iface != nil && types.Implements(types.NewPointer(tn.Type()), iface)) {
			return true
		}
	}
	return false
}

// instrument reports whether field v holds a metrics type, a pointer
// to one, or a struct of the package made only of them.
func (s *Source) instrument(v *types.Var) bool {
	e := s.fields[v].typ
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		x, _ := sel.X.(*ast.Ident)
		pn, ok := s.info.Uses[x].(*types.PkgName)
		return ok && pn.Imported().Path() == metricsPath
	}
	st, ok := v.Type().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return false
	}
	for i := range st.NumFields() {
		if !s.instrument(st.Field(i)) {
			return false
		}
	}
	return true
}

// Frames are a set of handlers' frame annotations — the variables
// each reads and writes, the sets §4.2's Dafny proofs must state —
// read from the source. A handler's frame covers the functions it
// reaches by static calls within the package; the walk stops at a
// method of a sublayer other than the handler's own and at an
// interface call, and reports both as interface edges.
type Frames struct {
	handlers []string
	frame    map[string]map[string]bool // handler → "Type.field" → written
	edges    map[string]bool            // "Type.method"
}

// Frames computes the frames of the named handlers ("Type.method" or
// "func").
func (s *Source) Frames(handlers []string) (*Frames, error) {
	f := &Frames{handlers: handlers, frame: make(map[string]map[string]bool), edges: make(map[string]bool)}
	for _, h := range handlers {
		i := slices.IndexFunc(s.funcs, func(fn *types.Func) bool { return funcName(fn) == h })
		if i < 0 {
			return nil, fmt.Errorf("verify: no function %s", h)
		}
		root, frame := s.funcs[i], make(map[string]bool)
		f.frame[h] = frame
		home := s.sublayer(root)
		seen := map[*types.Func]bool{root: true}
		for work := []*types.Func{root}; len(work) > 0; work = work[1:] {
			b := s.bodies[work[0]]
			for _, u := range b.uses {
				if s.isVar(u.v) {
					v := s.fields[u.v].owner + "." + u.v.Name()
					frame[v] = frame[v] || u.write
				}
			}
			for _, c := range b.calls {
				switch fn := c.fn; {
				case fn == nil:
					f.edges[c.edge] = true
				case s.bodies[fn] == nil || seen[fn]:
				case s.sublayer(fn) != "" && s.sublayer(fn) != home:
					f.edges[funcName(fn)] = true
				default:
					seen[fn] = true
					work = append(work, fn)
				}
			}
		}
	}
	return f, nil
}

// CrossSublayer is the T3 litmus of disjoint state: every selection,
// in a method of one sublayer type, of a field of another, as
// "file:line Type.field" in source order. Disjoint state means none.
func (s *Source) CrossSublayer() []string {
	var out []string
	for _, fn := range s.funcs {
		home := s.sublayer(fn)
		for _, u := range s.bodies[fn].uses {
			if o := s.fields[u.v].owner; home != "" && o != home && slices.Contains(s.scope.Sublayers, o) {
				p := s.fset.Position(u.pos)
				out = append(out, fmt.Sprintf("%s:%d %s.%s", p.Filename, p.Line, o, u.v.Name()))
			}
		}
	}
	return out
}

// Calls is the T2 litmus of narrow interfaces: every call, in a method
// of one sublayer type, of a method of another or of an interface
// method, as "file:line Caller Type.method" in source order. Narrow
// interfaces means each is an edge the design declares.
func (s *Source) Calls() []string {
	var out []string
	for _, fn := range s.funcs {
		home := s.sublayer(fn)
		if home == "" {
			continue
		}
		for _, c := range s.bodies[fn].calls {
			callee := c.edge
			if c.fn != nil {
				if o := s.sublayer(c.fn); o == "" || o == home {
					continue
				}
				callee = funcName(c.fn)
			}
			p := s.fset.Position(c.pos)
			out = append(out, fmt.Sprintf("%s:%d %s %s", p.Filename, p.Line, home, callee))
		}
	}
	return out
}

// Edges returns the interface edges where the handlers' walks
// stopped, sorted.
func (f *Frames) Edges() []string { return sortedKeys(f.edges) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Entanglement is the E6 report for one implementation.
type Entanglement struct {
	Handlers         int
	Vars             int
	SharedVars       int // touched by ≥2 handlers
	WriteShared      int // written by ≥2 handlers
	InteractionPairs int // handler pairs sharing ≥1 variable
	MaxPairs         int // n*(n-1)/2, the O(N²) ceiling
}

// Entanglement computes the entanglement metrics: the variables
// handlers share, and the handler pairs sharing one — the O(N²)
// cross-reasoning obligations the paper conjectures sublayering
// removes.
func (f *Frames) Entanglement() Entanglement {
	hs := f.handlers
	e := Entanglement{Handlers: len(hs), MaxPairs: len(hs) * (len(hs) - 1) / 2}
	touchCount := make(map[string]int)
	writeCount := make(map[string]int)
	for _, h := range hs {
		for v, w := range f.frame[h] {
			touchCount[v]++
			if w {
				writeCount[v]++
			}
		}
	}
	e.Vars = len(touchCount)
	for v, n := range touchCount {
		if n >= 2 {
			e.SharedVars++
		}
		if writeCount[v] >= 2 {
			e.WriteShared++
		}
	}
	for i, hi := range hs {
		for _, hj := range hs[i+1:] {
			for v := range f.frame[hi] {
				if _, ok := f.frame[hj][v]; ok {
					e.InteractionPairs++
					break
				}
			}
		}
	}
	return e
}

// Blast is the blast radius of one variable: the handlers that touch
// it and every other variable those handlers also touch — the state a
// reviewer must re-examine when v's semantics change (the E6/E12
// question: what does swapping the congestion controller behind
// PCB.cc / OSR.cc drag in?).
type Blast struct {
	Var       string
	Handlers  []string // handlers reading or writing v, sorted
	CoTouched []string // other vars those handlers read or write, sorted
}

// Blast computes the blast radius of variable v.
func (f *Frames) Blast(v string) Blast {
	b := Blast{Var: v}
	touched := make(map[string]bool)
	for _, h := range f.handlers {
		if _, ok := f.frame[h][v]; !ok {
			continue
		}
		b.Handlers = append(b.Handlers, h)
		for ov := range f.frame[h] {
			touched[ov] = true
		}
	}
	delete(touched, v)
	sort.Strings(b.Handlers)
	b.CoTouched = sortedKeys(touched)
	return b
}
