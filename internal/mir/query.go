package mir

import "strings"

// ClosureLocals maps locals holding a closure value to the closure body
// name, propagated through moves so `let cl = || ...; spawn(cl)` resolves.
func ClosureLocals(body *Body) map[LocalID]string {
	out := map[LocalID]string{}
	changed := true
	for changed {
		changed = false
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(Assign)
				if !ok || !as.Place.IsLocal() {
					continue
				}
				if _, done := out[as.Place.Local]; done {
					continue
				}
				switch rv := as.Rvalue.(type) {
				case Aggregate:
					if rv.Kind == AggClosure {
						out[as.Place.Local] = rv.Name
						changed = true
					}
				case Use:
					if pl, ok := OperandPlace(rv.X); ok && pl.IsLocal() {
						if cn, has := out[pl.Local]; has {
							out[as.Place.Local] = cn
							changed = true
						}
					}
				}
			}
		}
	}
	return out
}

// ParamNames returns the source names of a body's parameters in order
// ("" for a pattern parameter); nil for a nil body.
func ParamNames(body *Body) []string {
	if body == nil {
		return nil
	}
	out := make([]string, 0, body.ArgCount)
	for i := 1; i <= body.ArgCount && i < len(body.Locals); i++ {
		out = append(out, body.Locals[i].Name)
	}
	return out
}

// MethodName returns the last path segment of a callee name
// ("Vec::push" → "push").
func MethodName(callee string) string {
	if i := strings.LastIndex(callee, "::"); i >= 0 {
		return callee[i+2:]
	}
	return callee
}
