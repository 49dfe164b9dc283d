package lint_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"helcfl/internal/lint"
)

// keep names the declarations that no product path reaches but that stay on
// purpose, each with its reason. Rewriting a test is preferred to a new entry.
// TestReachability fails on an entry that no longer exists or that something
// outside the entry itself now reaches.
var keep = map[string]string{
	"fl.RestoreEngine":          "split-resume contract pinned by fl/resume_test.go; the planned trace replay is its product caller",
	"fl.UnmarshalEngineState":   "split-resume contract pinned by fl/resume_test.go; the planned trace replay is its product caller",
	"(*fl.Engine).Snapshot":     "split-resume contract pinned by fl/resume_test.go; the planned trace replay is its product caller",
	"(*fl.EngineState).Marshal": "split-resume contract pinned by fl/resume_test.go; the planned trace replay is its product caller",
	"tensor.SetWorkers":         "worker-count hook the kernel determinism tests sweep",
}

// keepFields names the exported fields that no non-test code writes but that
// stay on purpose, each with its reason. TestReachability fails on an entry
// that no longer exists or that non-test code now writes.
var keepFields = map[string]string{
	"fl.Config.QuantizeUploads":   "the only way the sim↔deploy conformance tests and the quantized zero-alloc gate reach the wire's float32 precision",
	"fl.Config.QuantizeBroadcast": "the only way the sim↔deploy conformance tests and the quantized zero-alloc gate reach the wire's float32 precision",
}

// keepReads names the exported fields that no non-test selector reads but
// that stay on purpose, each with its reason. A key is a struct type (all its
// fields), an interface (all fields of every struct type in the interface's
// own package that implements it) or one field. TestReachability fails on an entry that names no such
// declaration or that covers no field the read pass would report. A wire type
// that two binaries of this module exchange gets no type-level entry: the
// receiving side reads each field.
var keepReads = map[string]string{
	"obs.Event":                  "the flight dump for operators: obs/flight WriteDump and /debug/flightrec JSON-encode every event",
	"trace.Record":               "the trace JSONL schema v1, read by helcfl-inspect",
	"deploy.StatusResponse":      "the /status JSON for operators",
	"deploy.RoundSummary":        "the seam through which the recovery and conformance tests pin the global-model trajectory; its one non-test caller, the deploy_loopback benchmark, reads no field",
	"deploy.PollResponse.FreqHz": "Algorithm 3's frequency for the selected client; ROADMAP item 18 gives it a reader",
}

// testSupport are the packages whose every declaration is a root: they exist
// to be imported by tests.
var testSupport = map[string]bool{
	"helcfl/internal/chaos":         true,
	"helcfl/internal/leaktest":      true,
	"helcfl/internal/lint/linttest": true,
}

// reachDecl is one package-level declaration: a function, a method, a type,
// or one name of a var or const spec.
type reachDecl struct {
	key    string
	pkg    *lint.Package
	obj    types.Object
	node   ast.Node
	report bool // declared in the module, not in _bench
	refs   []*reachDecl
}

// reachSpan is the source range of one top-level spec or function; a var
// spec holds one declaration per name, plus its initialiser's root.
type reachSpan struct {
	pos, end token.Pos
	decls    []*reachDecl
}

// reachGraph is the reference graph over every declaration of the module
// and of _bench.
type reachGraph struct {
	fset  *token.FileSet
	decls []*reachDecl
	byObj map[types.Object]*reachDecl
	spans map[*token.File][]*reachSpan
	inits map[string][]*reachDecl // per package: init funcs and var initialisers
	// ifaces lists, by method name, every type-checked interface of the
	// program: each interface type of the module and _bench, each
	// package-level named interface of the standard library, and error.
	// byName holds the method names of the other standard-library
	// interfaces, declared inside function bodies or unnamed in a
	// signature, which only the sources show.
	ifaces map[string][]reachIface
	byName map[string]bool
	seen   map[*types.Interface]bool
}

// reachIface is one type-checked interface.
type reachIface struct {
	it *types.Interface
	// generic marks an interface declared with type parameters, on which
	// types.Implements is unspecified: it matches by method names.
	generic bool
}

// TestReachability fails for every non-test declaration that no product path
// reaches, for every exported field of an exported struct type that no
// non-test code writes: such a field is an option fixed at its zero value,
// and for every such field that no non-test code reads: an output that
// nothing consumes.
//
// The roots are the main functions under cmd/, examples/ and _bench,
// the exported API of the root helcfl facade, the test-support packages, the
// init functions and package variable initialisers of every package a root
// imports, and the keep table. A live declaration makes live whatever it
// references. A live type T makes live each method, promoted ones
// included, that a call through an interface may dispatch to: one of an
// interface that *T implements (types.Implements), or one whose name is a
// method of a standard-library interface only the sources show.
func TestReachability(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader()
	if _, err := l.LoadModule(root); err != nil {
		t.Fatalf("load module: %v", err)
	}
	pkgs, err := l.LoadModule(filepath.Join(root, "_bench"))
	if err != nil {
		t.Fatalf("load _bench: %v", err)
	}
	g, err := buildReachGraph(pkgs[0].Fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	var roots []*reachDecl
	var rootPkgs []*types.Package
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.Path, "helcfl/")
		isMain := pkg.Types.Name() == "main" &&
			(strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") || rel == "_bench" || strings.HasPrefix(rel, "_bench/"))
		facade := pkg.Path == "helcfl"
		support := testSupport[pkg.Path]
		if isMain || facade || support {
			rootPkgs = append(rootPkgs, pkg.Types)
		}
		for _, d := range g.decls {
			if d.pkg != pkg {
				continue
			}
			switch {
			case isMain && d.obj.Name() == "main" && !isMethod(d.obj),
				facade && d.obj.Exported(),
				support:
				roots = append(roots, d)
			}
		}
	}
	for _, p := range importClosure(rootPkgs) {
		roots = append(roots, g.inits[p.Path()]...)
	}

	byKey := map[string]*reachDecl{}
	for _, d := range g.decls {
		if d.report {
			byKey[d.key] = d
		}
	}
	var kept []*reachDecl
	for _, key := range sortedKeys(keep) {
		d, ok := byKey[key]
		if !ok {
			t.Errorf("stale keep entry %s: no such declaration", key)
			continue
		}
		kept = append(kept, d)
	}
	live := g.reach(roots)
	for _, d := range kept {
		if live[d] {
			t.Errorf("stale keep entry %s: a product path reaches it", d.key)
		}
	}
	live = g.reach(append(roots, kept...))

	var dead []*reachDecl
	for _, d := range g.decls {
		if d.report && !live[d] && d.obj.Name() != "_" {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	lines := 0
	for _, d := range dead {
		start, end := g.fset.Position(d.node.Pos()), g.fset.Position(d.node.End())
		n := end.Line - start.Line + 1
		lines += n
		file, _ := filepath.Rel(root, start.Filename)
		t.Errorf("unreached: %s %s:%d (%d lines)", d.key, file, start.Line, n)
	}
	if len(dead) > 0 {
		t.Errorf("%d unreached declarations, %d lines: delete them, move a test oracle into its _test.go file, or add a keep entry with its reason", len(dead), lines)
	}

	fields := exportedFields(pkgs)
	written := writtenFields(pkgs)
	for _, key := range sortedKeys(keepFields) {
		f, ok := fields[key]
		switch {
		case !ok:
			t.Errorf("stale keepFields entry %s: no such field", key)
		case written[f]:
			t.Errorf("stale keepFields entry %s: non-test code writes it", key)
		}
	}
	var unset []string
	for key, f := range fields {
		if !written[f] && keepFields[key] == "" {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		pos := g.fset.Position(fields[key].Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("unset: %s %s:%d", key, file, pos.Line)
	}
	if len(unset) > 0 {
		t.Errorf("%d exported fields that no non-test code writes: delete them with the branches they gate, or add a keepFields entry with its reason", len(unset))
	}

	read := readFields(pkgs)
	keptReads := map[*types.Var]bool{}
	for _, key := range sortedKeys(keepReads) {
		covered, ok := keepReadsCover(pkgs, fields, key)
		if !ok {
			t.Errorf("stale keepReads entry %s: no such type, interface or field", key)
			continue
		}
		stale := true
		for _, f := range covered {
			keptReads[f] = true
			stale = stale && read[f]
		}
		if stale {
			t.Errorf("stale keepReads entry %s: it covers no field the read pass would report", key)
		}
	}
	var unread []string
	for key, f := range fields {
		if !read[f] && !keptReads[f] {
			unread = append(unread, key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		pos := g.fset.Position(fields[key].Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("unread: %s %s:%d", key, file, pos.Line)
	}
	if len(unread) > 0 {
		t.Errorf("%d exported fields that no non-test code reads: delete them with the code that computes them, or add a keepReads entry with its reason", len(unread))
	}
}

// exportedFields maps the key "pkg.T.F" to each exported, non-embedded
// field F of an exported struct type T declared in the module, outside the
// test-support packages. An embedded field is composition, not an option.
func exportedFields(pkgs []*lint.Package) map[string]*types.Var {
	out := map[string]*types.Var{}
	for _, pkg := range pkgs {
		if !reported(pkg.Path) || testSupport[pkg.Path] {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					out[pkgPrefix(pkg.Path)+"."+name+"."+f.Name()] = f
				}
			}
		}
	}
	return out
}

// writtenFields returns every struct field that the non-test sources of pkgs
// write: as a composite-literal key or position, or in the operand of an
// assignment, an increment or decrement, or an address-of. Writing x.F.G or
// x.F[i] writes F too.
func writtenFields(pkgs []*lint.Package) map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		info := pkg.Info
		var operand func(ast.Expr)
		operand = func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
						written[sel.Obj().(*types.Var).Origin()] = true
					}
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := derefStruct(info.Types[n].Type)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								written[f.Origin()] = true
							}
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						operand(lhs)
					}
				case *ast.IncDecStmt:
					operand(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						operand(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}

// readFields returns every struct field that a selector in the non-test
// sources of pkgs reads: every field selector but the direct target of = or
// :=. The operand of &, ++, -- and op= reads it; a composite-literal key
// does not, as it is no selector.
func readFields(pkgs []*lint.Package) map[*types.Var]bool {
	read := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		targets := map[ast.Expr]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
					for _, lhs := range as.Lhs {
						targets[ast.Unparen(lhs)] = true
					}
				}
				return true
			})
		}
		for x, sel := range pkg.Info.Selections {
			if sel.Kind() == types.FieldVal && !targets[x] {
				read[sel.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	return read
}

// keepReadsCover returns the fields of exportedFields that the keepReads key
// covers, or false when the key names no struct type, interface or field.
func keepReadsCover(pkgs []*lint.Package, fields map[string]*types.Var, key string) ([]*types.Var, bool) {
	if f, ok := fields[key]; ok {
		return []*types.Var{f}, true
	}
	tn := lookupType(pkgs, key)
	if tn == nil {
		return nil, false
	}
	it, isIface := tn.Type().Underlying().(*types.Interface)
	if _, isStruct := tn.Type().Underlying().(*types.Struct); !isIface && !isStruct {
		return nil, false
	}
	var out []*types.Var
	for fk, f := range fields {
		owner := lookupType(pkgs, fk[:strings.LastIndex(fk, ".")])
		if owner == tn || isIface && owner.Pkg() == tn.Pkg() && types.Implements(types.NewPointer(owner.Type()), it) {
			out = append(out, f)
		}
	}
	return out, true
}

// lookupType returns the type that the key "pkg.T" names in a module
// package, or nil.
func lookupType(pkgs []*lint.Package, key string) *types.TypeName {
	dot := strings.LastIndex(key, ".")
	if dot < 0 {
		return nil
	}
	for _, pkg := range pkgs {
		if reported(pkg.Path) && pkgPrefix(pkg.Path) == key[:dot] {
			tn, _ := pkg.Types.Scope().Lookup(key[dot+1:]).(*types.TypeName)
			return tn
		}
	}
	return nil
}

// derefStruct returns the struct type under typ or, for the elided &T of a
// composite literal in a []*T or map[K]*T literal, under the pointer typ is.
func derefStruct(typ types.Type) (*types.Struct, bool) {
	if typ == nil {
		return nil, false
	}
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	return st, ok
}

func buildReachGraph(fset *token.FileSet, pkgs []*lint.Package) (*reachGraph, error) {
	g := &reachGraph{
		fset:   fset,
		byObj:  map[types.Object]*reachDecl{},
		spans:  map[*token.File][]*reachSpan{},
		inits:  map[string][]*reachDecl{},
		ifaces: map[string][]reachIface{},
		byName: map[string]bool{},
		seen:   map[*types.Interface]bool{},
	}
	g.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), false)
	for _, pkg := range pkgs {
		g.addPackage(pkg)
	}
	for _, spans := range g.spans {
		sort.Slice(spans, func(i, j int) bool { return spans[i].pos < spans[j].pos })
	}
	for _, pkg := range pkgs {
		g.addRefs(pkg)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				g.addIface(it, false)
			}
		}
	}
	return g, g.addStdIfaces(pkgs)
}

func (g *reachGraph) addIface(it *types.Interface, generic bool) {
	if g.seen[it] {
		return
	}
	g.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		g.ifaces[name] = append(g.ifaces[name], reachIface{it, generic})
	}
}

// dispatched reports whether a call through an interface may reach the
// method name of typ.
func (g *reachGraph) dispatched(typ types.Type, name string) bool {
	if g.byName[name] {
		return true
	}
	for _, ri := range g.ifaces[name] {
		if ri.generic && hasMethodNames(typ, ri.it) || !ri.generic && types.Implements(typ, ri.it) {
			return true
		}
	}
	return false
}

func hasMethodNames(typ types.Type, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name()); obj == nil {
			return false
		}
	}
	return true
}

// addPackage registers the declarations of one package and, as per-package
// roots, its init functions and the references of its var initialisers.
func (g *reachGraph) addPackage(pkg *lint.Package) {
	prefix := pkgPrefix(pkg.Path)
	report := reported(pkg.Path)
	add := func(obj types.Object, node ast.Node, s *reachSpan) *reachDecl {
		d := &reachDecl{key: declKey(prefix, obj), pkg: pkg, obj: obj, node: node, report: report}
		g.decls = append(g.decls, d)
		g.byObj[obj] = d
		s.decls = append(s.decls, d)
		return d
	}
	for _, f := range pkg.Files {
		tf := g.fset.File(f.Pos())
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				s := &reachSpan{pos: decl.Pos(), end: decl.End()}
				d := add(pkg.Info.Defs[decl.Name], decl, s)
				if decl.Recv == nil && decl.Name.Name == "init" {
					g.inits[pkg.Path] = append(g.inits[pkg.Path], d)
				}
				g.spans[tf] = append(g.spans[tf], s)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var node ast.Node = spec
					if len(decl.Specs) == 1 {
						node = decl
					}
					s := &reachSpan{pos: node.Pos(), end: node.End()}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(pkg.Info.Defs[spec.Name], node, s)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(pkg.Info.Defs[name], node, s)
						}
						if decl.Tok == token.VAR && len(spec.Values) > 0 {
							// The initialiser runs whenever the package is
							// imported: a nameless root that shares the
							// spec's references.
							init := &reachDecl{key: prefix + ".<var init>", pkg: pkg, node: node}
							s.decls = append(s.decls, init)
							g.inits[pkg.Path] = append(g.inits[pkg.Path], init)
						}
					default:
						continue
					}
					g.spans[tf] = append(g.spans[tf], s)
				}
			}
		}
	}
}

// addRefs adds an edge from the declaration enclosing each identifier use to
// the declaration of the object it denotes.
func (g *reachGraph) addRefs(pkg *lint.Package) {
	edge := func(at token.Pos, obj types.Object) {
		to := g.declOf(obj)
		if to == nil {
			return
		}
		s := g.spanAt(at)
		if s == nil {
			return
		}
		for _, from := range s.decls {
			from.refs = append(from.refs, to)
		}
	}
	for id, obj := range pkg.Info.Uses {
		edge(id.Pos(), obj)
	}
	for sel, s := range pkg.Info.Selections {
		edge(sel.Sel.Pos(), s.Obj())
	}
}

// declOf maps an object to the declaration that introduces it: itself for a
// package-level name, the enclosing type for a field or interface method.
func (g *reachGraph) declOf(obj types.Object) *reachDecl {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if d, ok := g.byObj[obj]; ok {
		return d
	}
	if obj.Pkg() == nil || !obj.Pos().IsValid() {
		return nil
	}
	if s := g.spanAt(obj.Pos()); s != nil && len(s.decls) == 1 {
		if _, isType := s.decls[0].obj.(*types.TypeName); isType {
			return s.decls[0]
		}
	}
	return nil
}

func (g *reachGraph) spanAt(pos token.Pos) *reachSpan {
	spans := g.spans[g.fset.File(pos)]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > pos })
	if i < len(spans) && spans[i].pos <= pos {
		return spans[i]
	}
	return nil
}

// reach returns the declarations live from roots.
func (g *reachGraph) reach(roots []*reachDecl) map[*reachDecl]bool {
	live := map[*reachDecl]bool{}
	work := append([]*reachDecl(nil), roots...)
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if live[d] {
			continue
		}
		live[d] = true
		work = append(work, d.refs...)
		tn, ok := d.obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		// *T's method set holds T's methods and the promoted ones, and *T
		// implements every interface T does.
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func).Origin()
			md, ok := g.byObj[m]
			if !ok || live[md] {
				continue
			}
			if g.dispatched(ptr, m.Name()) {
				work = append(work, md)
			}
		}
	}
	return live
}

// addStdIfaces collects the interfaces of every standard library package
// the loaded program imports: the package-level named ones from the
// type-checker, and by name the rest from their sources, which the
// package scope omits (errors.Is's Is(error) bool, for one).
func (g *reachGraph) addStdIfaces(pkgs []*lint.Package) error {
	var tps []*types.Package
	for _, pkg := range pkgs {
		tps = append(tps, pkg.Types)
	}
	fset := token.NewFileSet()
	src := filepath.Join(runtime.GOROOT(), "src")
	for _, p := range importClosure(tps) {
		if p.Path() == "helcfl" || strings.HasPrefix(p.Path(), "helcfl/") || p.Path() == "unsafe" {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			g.addIface(it, ok && named.TypeParams().Len() > 0)
		}
		bp, err := build.ImportDir(filepath.Join(src, p.Path()), 0)
		if err != nil {
			return fmt.Errorf("std package %s: %w", p.Path(), err)
		}
		files := make([]*ast.File, 0, len(bp.GoFiles))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		collectIfaceNames(g.byName, files)
	}
	return nil
}

// collectIfaceNames adds the method names of every interface type in files
// but the package-level named ones.
func collectIfaceNames(names map[string]bool, files []*ast.File) {
	for _, f := range files {
		named := map[ast.Expr]bool{}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						named[ts.Type] = true
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok && !named[it] {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						names[name.Name] = true
					}
				}
			}
			return true
		})
	}
}

// importClosure returns pkgs and every package they import, transitively.
func importClosure(pkgs []*types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// pkgPrefix is the short package name keys use: "fl" for helcfl/internal/fl.
func pkgPrefix(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, "helcfl/internal/"), "helcfl/")
}

// reported reports whether path is a module package rather than one of _bench.
func reported(path string) bool {
	return path != "helcfl/_bench" && !strings.HasPrefix(path, "helcfl/_bench/")
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// declKey names a declaration as "pkg.Name" or, for a method, "(*pkg.T).M".
func declKey(prefix string, obj types.Object) string {
	if !isMethod(obj) {
		return prefix + "." + obj.Name()
	}
	recv := obj.Type().(*types.Signature).Recv().Type()
	star := ""
	if p, ok := recv.(*types.Pointer); ok {
		star, recv = "*", p.Elem()
	}
	name := recv.(*types.Named).Obj().Name()
	return "(" + star + prefix + "." + name + ")." + obj.Name()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
