package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WireCodec keeps fleet mode total over the experiments registry: every
// concrete type a grid.Cell's Run function can return crosses the
// coordinator/worker wire through experiments.Encode/DecodeCellResult, which
// is gob — and gob decodes only registered types with gob-safe fields. The
// analyzer collects the concrete result types of every `Run:` function
// literal inside a grid.Cell composite literal, requires a matching
// gob.Register call in the package (pointer-ness must match exactly), and
// audits the fields of every such type: an unexported field is silently
// dropped by gob (a wrong-answer bug, not an error), and func or chan fields
// fail at encode time. Types that implement gob.GobEncoder own their wire
// format and are exempt from the field audit. A Run that returns an
// interface or is not a visible function literal defeats the exhaustiveness
// proof and is reported as such. A Run inside a generic cell constructor
// whose result is one of the constructor's type parameters is checked at
// every instantiation: each type argument must be registered.
var WireCodec = &Analyzer{
	Name: "wirecodec",
	Doc:  "require every registry cell result type to be gob-registered with gob-safe fields",
	Run:  runWireCodec,
}

func runWireCodec(p *Pass) {
	if !IsWireCodecScoped(p.Path) {
		return
	}
	registered := map[string]token.Pos{} // canonical type string -> gob.Register site
	required := map[string]token.Pos{}   // canonical type string -> first Run return site
	reqTypes := map[string]types.Type{}
	regTypes := map[string]types.Type{}
	typeParams := map[*types.TypeParam]bool{} // Run results typed by a constructor's type parameter

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if fn := pkgFunc(p, sel); fn != nil && fn.Pkg().Path() == "encoding/gob" && fn.Name() == "Register" && len(n.Args) == 1 {
						if t := p.Info.Types[n.Args[0]].Type; t != nil {
							key := types.TypeString(t, nil)
							if _, ok := registered[key]; !ok {
								registered[key] = n.Pos()
								regTypes[key] = t
							}
						}
					}
				}
			case *ast.CompositeLit:
				if isGridCell(p, n) {
					collectCellResults(p, n, typeParams, required, reqTypes)
				}
			}
			return true
		})
	}

	requireInstances(p, typeParams, required, reqTypes)

	for key, pos := range required {
		if _, ok := registered[key]; !ok {
			p.Reportf(pos, "cell result type %s has no gob.Register in the wire codec; fleet workers could not ship it (experiments.EncodeCellResult)", relType(p, reqTypes[key]))
		}
	}
	// Audit the fields of everything that crosses the wire — required and
	// registered alike, so a pre-registered type cannot rot either.
	audited := map[string]bool{}
	for key, t := range regTypes {
		auditGobFields(p, t, registered[key], audited)
	}
	for key, t := range reqTypes {
		if pos, ok := registered[key]; ok {
			auditGobFields(p, t, pos, audited)
		} else {
			auditGobFields(p, t, required[key], audited)
		}
	}
}

// isGridCell reports whether cl is a composite literal of grid.Cell.
func isGridCell(p *Pass, cl *ast.CompositeLit) bool {
	t := p.Info.Types[cl].Type
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Cell" && named.Obj().Pkg().Path() == "helcfl/internal/grid"
}

// collectCellResults records the concrete type of every result the cell's
// Run function literal can return, and the type parameters standing in for
// one inside a generic constructor.
func collectCellResults(p *Pass, cl *ast.CompositeLit, typeParams map[*types.TypeParam]bool, required map[string]token.Pos, reqTypes map[string]types.Type) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Run" {
			continue
		}
		fl, ok := kv.Value.(*ast.FuncLit)
		if !ok {
			p.Reportf(kv.Value.Pos(), "cell Run is not a function literal; wirecodec cannot prove its result type is registered — inline the function")
			continue
		}
		for _, ret := range funcLitReturns(fl) {
			t := cellResultType(p, ret)
			if t == nil {
				continue
			}
			if isNilExpr(p, ret.Results[0]) {
				continue
			}
			if tp, ok := t.(*types.TypeParam); ok {
				typeParams[tp] = true
				continue
			}
			if types.IsInterface(t) {
				p.Reportf(ret.Pos(), "cell Run returns an interface-typed result; return a concrete type so wirecodec can check its registration")
				continue
			}
			requireType(required, reqTypes, t, ret.Pos())
		}
	}
}

// requireType records t as a wire-crossing result first seen at pos.
func requireType(required map[string]token.Pos, reqTypes map[string]types.Type, t types.Type, pos token.Pos) {
	key := types.TypeString(t, nil)
	if old, ok := required[key]; !ok || pos < old {
		required[key] = pos
		reqTypes[key] = t
	}
}

// requireInstances resolves type-parameter-typed Run results: every
// instantiation of the generic function declaring the parameter requires
// its type argument, reported at the instantiation site.
func requireInstances(p *Pass, typeParams map[*types.TypeParam]bool, required map[string]token.Pos, reqTypes map[string]types.Type) {
	if len(typeParams) == 0 {
		return
	}
	for id, inst := range p.Info.Instances {
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			continue
		}
		tps := fn.Origin().Type().(*types.Signature).TypeParams()
		for i := 0; i < tps.Len() && i < inst.TypeArgs.Len(); i++ {
			if !typeParams[tps.At(i)] {
				continue
			}
			t := inst.TypeArgs.At(i)
			if types.IsInterface(t) {
				p.Reportf(id.Pos(), "cell constructor %s instantiated with interface-typed result %s; use a concrete type so wirecodec can check its registration", fn.Name(), relType(p, t))
				continue
			}
			requireType(required, reqTypes, t, id.Pos())
		}
	}
}

// funcLitReturns returns the return statements belonging to fl itself, not
// to function literals nested inside it.
func funcLitReturns(fl *ast.FuncLit) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// cellResultType resolves the type of the first (result) value of ret: the
// first expression's type, or the first element when a single call forwards
// the whole (any, error) tuple.
func cellResultType(p *Pass, ret *ast.ReturnStmt) types.Type {
	if len(ret.Results) == 0 {
		return nil
	}
	t := p.Info.Types[ret.Results[0]].Type
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return nil
		}
		return tup.At(0).Type()
	}
	return t
}

// isNilExpr reports whether e is the predeclared nil (an error-path return).
func isNilExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.IsNil()
}

// relType renders t relative to the pass's package for a readable message.
func relType(p *Pass, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(p.Pkg))
}

// auditGobFields checks that t (a wire-crossing cell result) has only
// exported, gob-encodable fields, recursing through the structs, slices,
// arrays, maps, and pointers it contains. Types that implement GobEncoder
// own their wire format and are skipped.
func auditGobFields(p *Pass, t types.Type, at token.Pos, audited map[string]bool) {
	key := types.TypeString(t, nil)
	if audited[key] {
		return
	}
	audited[key] = true

	switch u := t.(type) {
	case *types.Pointer:
		auditGobFields(p, u.Elem(), at, audited)
		return
	case *types.Slice:
		auditGobFields(p, u.Elem(), at, audited)
		return
	case *types.Array:
		auditGobFields(p, u.Elem(), at, audited)
		return
	case *types.Map:
		auditGobFields(p, u.Key(), at, audited)
		auditGobFields(p, u.Elem(), at, audited)
		return
	}

	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	if hasGobEncoder(named) {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			p.Reportf(at, "wire type %s has unexported field %s.%s; gob drops it silently — export it or implement GobEncoder", relType(p, t), named.Obj().Name(), f.Name())
			continue
		}
		switch f.Type().Underlying().(type) {
		case *types.Signature:
			p.Reportf(at, "wire type %s has func-typed field %s.%s; gob cannot encode it", relType(p, t), named.Obj().Name(), f.Name())
		case *types.Chan:
			p.Reportf(at, "wire type %s has chan-typed field %s.%s; gob cannot encode it", relType(p, t), named.Obj().Name(), f.Name())
		default:
			auditGobFields(p, f.Type(), at, audited)
		}
	}
}

// hasGobEncoder reports whether named declares a GobEncode method (on any
// receiver), marking it a gob.GobEncoder that owns its wire format.
func hasGobEncoder(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "GobEncode" {
			return true
		}
	}
	return false
}
