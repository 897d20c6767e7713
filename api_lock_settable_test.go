package catapult_test

// Companion to the api-lock test, specialized to configuration: it pins
// every value a caller can set through the facade's three option types.
// A setting should exist only when two programs want different values, so
// a new knob must show up here as one added line, and a deleted one as one
// removed line.

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// settableValues is the sorted list of exported fields reachable from
// Config, PatternServerOptions and NetworkLoadOptions.
var settableValues = []string{
	"Config.Budget.EtaMax",
	"Config.Budget.EtaMin",
	"Config.Budget.Gamma",
	"Config.Budget.SizeDist",
	"Config.Clustering.MCSBudget",
	"Config.Clustering.MinSupport",
	"Config.Clustering.N",
	"Config.Clustering.Seed",
	"Config.Clustering.Strategy",
	"Config.Degradation.Deadline",
	"Config.Degradation.Enabled",
	"Config.Network.MaxRegionEdges",
	"Config.Network.Name",
	"Config.Network.Reps",
	"Config.Network.Seed",
	"Config.Observer",
	"Config.Sampling.E",
	"Config.Sampling.Epsilon",
	"Config.Sampling.P",
	"Config.Sampling.Rho",
	"Config.Sampling.Z",
	"Config.Seed",
	"Config.Selection.QueryLog",
	"Config.Selection.Seed",
	"Config.Selection.TopCSGs",
	"Config.Selection.Walks",
	"NetworkLoadOptions.EdgeHint",
	"NetworkLoadOptions.VertexHint",
	"PatternServerOptions.Metrics",
	"PatternServerOptions.Suggest.Budget",
	"PatternServerOptions.Suggest.TopK",
}

func TestAPILockSettableValues(t *testing.T) {
	fset := token.NewFileSet()
	pkg := typeCheckRootPackage(t, fset)

	var got []string
	for _, name := range []string{"Config", "PatternServerOptions", "NetworkLoadOptions"} {
		obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			t.Fatalf("root package declares no type %s", name)
		}
		got = appendSettable(got, name, obj.Type())
	}
	sort.Strings(got)

	if strings.Join(got, "\n") != strings.Join(settableValues, "\n") {
		t.Errorf("the settable values changed; a new value needs two programs that set it differently, and settableValues must list it.\ngot %d:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, "\n  "), len(settableValues), strings.Join(settableValues, "\n  "))
	}
}

// appendSettable appends the settable values under path: one per exported
// field, recursing into fields whose type is a struct, or a pointer to one,
// with exported fields of its own.
func appendSettable(out []string, path string, t types.Type) []string {
	st := exportedStruct(t)
	if st == nil {
		return append(out, path)
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Exported() {
			out = appendSettable(out, path+"."+f.Name(), f.Type())
		}
	}
	return out
}

// exportedStruct returns the struct under t (through one pointer) when it
// has an exported field, and nil otherwise.
func exportedStruct(t types.Type) *types.Struct {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := types.Unalias(t).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			return st
		}
	}
	return nil
}
