package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestStatsFillsEveryField reads DB.Stats and Stats.FillRatios as source and
// checks that every field of Stats and TableStats is assigned there: a
// counter declared (and tagged, and therefore exported, summed and
// subtracted) but never filled would read zero everywhere, consistently, and
// no value-comparing test could tell.
func TestStatsFillsEveryField(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "engine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	filled := map[string]bool{} // by field name: the two structs' shared names are filled in both
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || (fn.Name.Name != "Stats" && fn.Name.Name != "FillRatios") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr: // Stats{Field: ...}, TableStats{Field: ...}
				if id, ok := n.Key.(*ast.Ident); ok {
					filled[id.Name] = true
				}
			case *ast.AssignStmt: // ts.Field = ..., s.Field = ...
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						filled[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Stats{}), reflect.TypeOf(TableStats{})} {
		for i := 0; i < typ.NumField(); i++ {
			if field := typ.Field(i).Name; !filled[field] {
				t.Errorf("%s.%s is declared but neither DB.Stats nor FillRatios assigns it", typ.Name(), field)
			}
		}
	}
}
