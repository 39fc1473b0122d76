package rustprobe

// White-box tests for the detector fan-out that every analysis runs
// through — Detect, DetectContext and the session's full, incremental
// and restore rounds: panic isolation (a panicking pass becomes a typed
// *PanicError instead of killing the process or a pool worker),
// cancellation (a dead request stops the fan-out at detector
// granularity), and failed session rounds committing nothing. These
// live in package rustprobe to reach the testDetectors seam.

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"strings"
	"testing"

	"rustprobe/internal/detect"
)

type panickyDetector struct{}

func (panickyDetector) Name() string                  { return "test-panic" }
func (panickyDetector) Run(*detect.Context) []Finding { panic("injected pass panic") }

type countingDetector struct{ ran *bool }

func (countingDetector) Name() string                    { return "test-count" }
func (d countingDetector) Run(*detect.Context) []Finding { *d.ran = true; return nil }

func analyzeClean(t *testing.T) *Result {
	t.Helper()
	res, err := AnalyzeSource("clean.rs", "fn add(a: i32, b: i32) -> i32 { a + b }\n")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// withTestDetectors appends ds to the fan-out's registry for the rest of
// the test.
func withTestDetectors(t *testing.T, ds ...Detector) {
	t.Helper()
	testDetectors = ds
	t.Cleanup(func() { testDetectors = nil })
}

func TestDetectContextPanicIsolation(t *testing.T) {
	withTestDetectors(t, panickyDetector{})

	res := analyzeClean(t)
	fs, times, err := res.DetectContext(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Detector != "test-panic" {
		t.Errorf("Detector = %q", pe.Detector)
	}
	if pe.Value != "injected pass panic" {
		t.Errorf("Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panickyDetector") {
		t.Errorf("stack not captured: %q", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "test-panic") {
		t.Errorf("Error() = %q", pe.Error())
	}
	if fs != nil {
		t.Errorf("findings returned alongside a panic: %+v", fs)
	}
	// The healthy passes still ran and were timed.
	if _, ok := times["use-after-free"]; !ok {
		t.Errorf("times missing healthy detectors: %+v", times)
	}
}

func TestDetectContextCancelled(t *testing.T) {
	ran := false
	withTestDetectors(t, countingDetector{ran: &ran})

	res := analyzeClean(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before the fan-out starts
	fs, _, err := res.DetectContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fs != nil {
		t.Errorf("cancelled fan-out returned findings: %+v", fs)
	}
	if ran {
		t.Error("detector ran despite pre-cancelled context")
	}
}

// TestDetectRepanics: the quick-start entry point keeps the historical
// contract — a detector panic surfaces as a panic to the caller, not as
// a silently dropped error.
func TestDetectRepanics(t *testing.T) {
	withTestDetectors(t, panickyDetector{})

	res := analyzeClean(t)
	defer func() {
		if recover() == nil {
			t.Error("Detect swallowed a detector panic")
		}
	}()
	res.Detect()
}

// exportJSON snapshots everything a session round commits that outlives
// the process: hashes plus merged and per-root findings.
func exportJSON(t *testing.T, s *Session) string {
	t.Helper()
	b, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// panicRoundRepo is a two-file tree with findings from local (use-after-
// free, double-lock) and global (lock-order) detectors, so a round that
// commits partially would show in the exported findings.
func panicRoundRepo() map[string]string {
	return map[string]string{
		"a.rs": `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn helper(x: i32) -> i32 {
    x + 1
}
`,
		"b.rs": `struct S { a: Mutex<i32>, b: Mutex<i32> }
fn ab(s: &S) {
    let x = s.a.lock().unwrap();
    let y = s.b.lock().unwrap();
}
fn ba(s: &S) {
    let y = s.b.lock().unwrap();
    let x = s.a.lock().unwrap();
}
fn twice(m: Mutex<i32>) {
    let a = m.lock().unwrap();
    let b = m.lock().unwrap();
}
`,
	}
}

// TestSessionRoundPanics: a detector panic in a full or a body-only
// incremental round returns *PanicError, leaves the previous good round
// intact (state, FileSet, carries), and the next clean round equals a
// stateless analysis — incrementally, when the edit allows it.
func TestSessionRoundPanics(t *testing.T) {
	base := panicRoundRepo()
	bodyEdit := clone(base)
	bodyEdit["a.rs"] = strings.Replace(bodyEdit["a.rs"], "x + 1", "x + 2", 1)
	fileAdded := clone(base)
	fileAdded["c.rs"] = "fn extra() {\n    let z = helper(3);\n}\n"

	for _, tc := range []struct {
		name     string
		next     map[string]string
		wantFull bool
	}{
		{"full round", fileAdded, true},
		{"incremental round", bodyEdit, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession()
			if _, err := s.Analyze(base); err != nil {
				t.Fatal(err)
			}
			before := exportJSON(t, s)
			files, size := len(s.fset.Files()), s.fset.Size()
			carries := maps.Clone(s.carries)

			withTestDetectors(t, panickyDetector{})
			up, err := s.Analyze(tc.next)
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Detector != "test-panic" {
				t.Fatalf("err = %v, want *PanicError from test-panic", err)
			}
			if up != nil {
				t.Fatalf("failed round returned an update: %+v", up.Stats)
			}
			if got := exportJSON(t, s); got != before {
				t.Fatalf("failed round changed the committed state:\nbefore %s\nafter  %s", before, got)
			}
			if n, sz := len(s.fset.Files()), s.fset.Size(); n != files || sz != size {
				t.Errorf("failed round leaked FileSet state: files %d->%d, size %d->%d", files, n, size, sz)
			}
			for name, c := range carries {
				if s.carries[name] != c {
					t.Errorf("failed round replaced the %s carry", name)
				}
			}

			testDetectors = nil
			up, err = s.Analyze(tc.next)
			if err != nil {
				t.Fatal(err)
			}
			if up.Stats.Full != tc.wantFull {
				t.Errorf("clean retry Full = %v, want %v (%+v)", up.Stats.Full, tc.wantFull, up.Stats)
			}
			if !tc.wantFull && up.Stats.GlobalFactsReused == 0 {
				t.Errorf("clean retry reused no carried facts: %+v", up.Stats)
			}
			if got, want := sessionStrings(up), fullDetect(t, tc.next); !equalStrings(got, want) {
				t.Fatalf("clean retry diverged from a stateless analysis\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestSessionRestoreRoundPanic: a panic in the first round after Restore
// keeps the persisted state armed, so the clean retry still replays it.
func TestSessionRestoreRoundPanic(t *testing.T) {
	base := panicRoundRepo()
	first := NewSession()
	if _, err := first.Analyze(base); err != nil {
		t.Fatal(err)
	}
	st := first.ExportState()
	edited := clone(base)
	edited["a.rs"] = strings.Replace(edited["a.rs"], "x + 1", "x + 2", 1)

	s := NewSession()
	if err := s.Restore(st); err != nil {
		t.Fatal(err)
	}
	withTestDetectors(t, panickyDetector{})
	if _, err := s.Analyze(edited); !errors.As(err, new(*PanicError)) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	testDetectors = nil
	up, err := s.Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Stats.Restored || up.Stats.Full || up.Stats.FindingsReused == 0 {
		t.Errorf("clean retry did not replay the persisted state: %+v", up.Stats)
	}
	if got, want := sessionStrings(up), fullDetect(t, edited); !equalStrings(got, want) {
		t.Fatalf("clean retry diverged from a stateless analysis\n got: %v\nwant: %v", got, want)
	}
}
