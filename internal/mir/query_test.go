package mir

import (
	"strings"
	"testing"

	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

func TestClosureLocalsFollowMoves(t *testing.T) {
	b := &Body{}
	b.NewLocal("", types.UnitType, false, source.Span{})
	cl := b.NewLocal("cl", types.UnknownType, false, source.Span{})
	moved := b.NewLocal("moved", types.UnknownType, false, source.Span{})
	other := b.NewLocal("other", types.I32Type, false, source.Span{})
	blk := b.NewBlock()
	// The move comes first in block order, so the fixpoint needs a second
	// pass to carry the closure name through it.
	blk.Stmts = []Statement{
		Assign{Place: PlaceOf(moved.ID), Rvalue: Use{X: Move{Place: PlaceOf(cl.ID)}}},
		Assign{Place: PlaceOf(cl.ID), Rvalue: Aggregate{Kind: AggClosure, Name: "f::closure#0"}},
		Assign{Place: PlaceOf(other.ID), Rvalue: Aggregate{Kind: AggStruct, Name: "S"}},
		Assign{Place: PlaceOf(cl.ID).WithProj(FieldProj{Name: "x"}), Rvalue: Aggregate{Kind: AggClosure, Name: "f::closure#1"}},
	}
	blk.Term = Return{}
	got := ClosureLocals(b)
	if len(got) != 2 || got[cl.ID] != "f::closure#0" || got[moved.ID] != "f::closure#0" {
		t.Errorf("ClosureLocals = %v, want cl and moved → f::closure#0", got)
	}
}

func TestParamNames(t *testing.T) {
	if ParamNames(nil) != nil {
		t.Error("ParamNames(nil) != nil")
	}
	b := &Body{ArgCount: 2}
	b.NewLocal("", types.UnitType, false, source.Span{})
	b.NewLocal("self", types.UnknownType, false, source.Span{})
	b.NewLocal("", types.I32Type, false, source.Span{}) // pattern parameter
	b.NewLocal("local", types.I32Type, false, source.Span{})
	if got := strings.Join(ParamNames(b), ","); got != "self," {
		t.Errorf("ParamNames = %q, want %q", got, "self,")
	}
}

func TestMethodName(t *testing.T) {
	for in, want := range map[string]string{
		"Vec::push":        "push",
		"std::mem::forget": "forget",
		"notify_one":       "notify_one",
		"":                 "",
	} {
		if got := MethodName(in); got != want {
			t.Errorf("MethodName(%q) = %q, want %q", in, got, want)
		}
	}
}
