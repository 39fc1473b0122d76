package visualize

import (
	"strings"
	"testing"

	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

func lowerFn(t *testing.T, src, fn string) (*mir.Body, *source.FileSet) {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("test.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	body, ok := bodies[fn]
	if !ok {
		t.Fatalf("no body %q", fn)
	}
	return body, fset
}

const guardSrc = `
struct Inner { m: i32 }
fn f(client: RwLock<Inner>) {
    match client.read().unwrap().m {
        1 => { body1(); }
        _ => { body2(); }
    };
    after();
}
`

func TestAnnotateGuardEvents(t *testing.T) {
	body, fset := lowerFn(t, guardSrc, "f")
	events := Annotate(body, fset)
	var acquire, release *Event
	for i := range events {
		switch events[i].Kind {
		case EventAcquire:
			acquire = &events[i]
		case EventRelease:
			release = &events[i]
		}
	}
	if acquire == nil || release == nil {
		t.Fatalf("missing events: %+v", events)
	}
	if acquire.Line != 4 {
		t.Errorf("acquire line = %d, want 4", acquire.Line)
	}
	// The implicit unlock is at the END of the match (line 7's closing).
	if release.Line <= acquire.Line {
		t.Errorf("release (line %d) should follow acquire (line %d): the guard lives to the end of the match", release.Line, acquire.Line)
	}
	if !strings.Contains(release.Detail, "client") {
		t.Errorf("release detail = %q", release.Detail)
	}
}

func TestCriticalSections(t *testing.T) {
	body, fset := lowerFn(t, guardSrc, "f")
	cs := CriticalSections(body, fset)
	rng, ok := cs["client"]
	if !ok {
		t.Fatalf("no critical section for client: %v", cs)
	}
	if rng[0] != 4 || rng[1] <= rng[0] {
		t.Errorf("critical section = %v, want start 4 and span the match", rng)
	}
}

func TestRenderInterleavesAnnotations(t *testing.T) {
	body, fset := lowerFn(t, guardSrc, "f")
	out := Render(body, fset)
	for _, want := range []string{"ACQUIRE", "RELEASE", "implicit unlock", "match client"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The RELEASE annotation must appear after the body1 line: the guard
	// outlives the arms.
	relIdx := strings.Index(out, "RELEASE")
	bodyIdx := strings.Index(out, "body1")
	if relIdx < bodyIdx {
		t.Errorf("RELEASE rendered before the arm body:\n%s", out)
	}
}

func TestDropEventsForOwnedValues(t *testing.T) {
	body, fset := lowerFn(t, `
fn g() {
    let v = Vec::new();
    use_it(&v);
}
`, "g")
	events := Annotate(body, fset)
	var sawDrop, sawStorageEnd bool
	for _, e := range events {
		if e.Kind == EventDrop && strings.Contains(e.Detail, "v") {
			sawDrop = true
		}
		if e.Kind == EventStorageEnd && e.Detail == "v" {
			sawStorageEnd = true
		}
	}
	if !sawDrop || !sawStorageEnd {
		t.Errorf("drop/storage events missing: %+v", events)
	}
}

// TestTryLockGuardReleaseIsImplicitUnlock: a try_lock guard unlocks when
// it dies, like any other guard, so its end renders as an implicit
// unlock, not as a plain drop.
func TestTryLockGuardReleaseIsImplicitUnlock(t *testing.T) {
	body, fset := lowerFn(t, `
fn h(A: Mutex<i32>) {
    let g = A.try_lock().unwrap();
    work(*g);
}
`, "h")
	events := Annotate(body, fset)
	for _, e := range events {
		if e.Kind == EventRelease && e.Detail == "implicit unlock of A (guard g)" {
			return
		}
	}
	t.Errorf("no implicit unlock of A (guard g): %+v", events)
}
