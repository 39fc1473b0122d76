package rustprobe

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestAnalyzeSourceAndDetect(t *testing.T) {
	res, err := AnalyzeSource("t.rs", `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Detect()
	if len(findings) != 1 || findings[0].Kind != "double-lock" {
		t.Fatalf("findings = %+v", findings)
	}
	// Named selection.
	if n := len(res.Detect("use-after-free")); n != 0 {
		t.Errorf("uaf findings = %d", n)
	}
	if n := len(res.Detect("double-lock")); n != 1 {
		t.Errorf("double-lock findings = %d", n)
	}
}

func TestAnalyzeSourceSyntaxError(t *testing.T) {
	res, err := AnalyzeSource("bad.rs", "fn broken( {")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	if res == nil || !res.Diags.HasErrors() {
		t.Error("partial result should carry diagnostics")
	}
}

func TestAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.rs"), []byte(`
fn f() {
    let v = Vec::new();
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Detect("use-after-free")
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	if _, err := AnalyzeDir(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

// AnalyzeDir must key files relative to the scanned root so findings and
// content-hash cache keys for identical trees match across machines.
func TestAnalyzeDirRelativePaths(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "a.rs"), []byte("fn f() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := res.Fset.Files()
	if len(files) != 1 || files[0].Name != "sub/a.rs" {
		var names []string
		for _, f := range files {
			names = append(names, f.Name)
		}
		t.Errorf("file names = %v, want [sub/a.rs]", names)
	}
}

// TestAnalyzeCorpusGroups loads every corpus group and runs each
// detector-selection shape the engine submits over it: a selection must
// report exactly the selected detectors' share of the full suite's
// findings, through Detect and DetectContext alike.
func TestAnalyzeCorpusGroups(t *testing.T) {
	for _, g := range []string{"detector-eval", "patterns", "unsafe", "all"} {
		res, err := AnalyzeCorpus(g)
		if err != nil {
			t.Fatalf("corpus %s: %v", g, err)
		}
		if len(res.Bodies) == 0 {
			t.Errorf("corpus %s lowered no bodies", g)
		}
		all := res.Detect()
		// Each selected detector reports exactly one kind named after it.
		for _, names := range [][]string{nil, {"use-after-free"}, {"double-lock", "conflicting-lock-order"}} {
			var want []string
			for _, f := range all {
				if names == nil || slices.Contains(names, string(f.Kind)) {
					want = append(want, f.Format(res.Fset))
				}
			}
			ctxFs, _, err := res.DetectContext(context.Background(), names...)
			if err != nil {
				t.Fatalf("%s %v: DetectContext: %v", g, names, err)
			}
			for _, got := range [][]Finding{res.Detect(names...), ctxFs} {
				var gotS []string
				for _, f := range got {
					gotS = append(gotS, f.Format(res.Fset))
				}
				sort.Strings(gotS)
				sort.Strings(want)
				if !slices.Equal(gotS, want) {
					t.Errorf("%s %v: selection reports %d findings, the full suite's share is %d\n got: %v\nwant: %v",
						g, names, len(gotS), len(want), gotS, want)
				}
			}
		}
	}
	if _, err := AnalyzeCorpus("nope"); err == nil {
		t.Error("unknown group should error")
	}
}

func TestDetectorRegistry(t *testing.T) {
	names := DetectorNames()
	want := []string{"use-after-free", "double-lock", "conflicting-lock-order", "blocking", "drop-bugs", "uninitialized-read", "interior-mutability", "race", "dynamic"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestMIRAccess(t *testing.T) {
	res, err := AnalyzeSource("t.rs", `fn g() { let x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	body := res.MIR("g")
	if body == nil {
		t.Fatal("no MIR for g")
	}
	if !strings.Contains(body.String(), "StorageLive") {
		t.Error("MIR dump missing storage markers")
	}
	if res.MIR("missing") != nil {
		t.Error("missing function should be nil")
	}
}

func TestScanUnsafeViaFacade(t *testing.T) {
	res, err := AnalyzeSource("u.rs", `
fn f() { unsafe { let p = 0 as *mut u8; *p = 1; } }
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.ScanUnsafe()
	if rep.Regions != 1 {
		t.Errorf("regions = %d", rep.Regions)
	}
	if len(rep.InteriorFns) != 1 {
		t.Errorf("interior fns = %d", len(rep.InteriorFns))
	}
}

func TestDynamicDetectorOptIn(t *testing.T) {
	res, err := AnalyzeSource("t.rs", `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// Default suite: one static double-lock finding, no dynamic ones.
	def := res.Detect()
	if len(def) != 1 {
		t.Fatalf("default findings = %d: %+v", len(def), def)
	}
	// Named: the dynamic explorer confirms the same deadlock.
	dyn := res.Detect("dynamic")
	if len(dyn) != 1 || dyn[0].Kind != "double-lock" {
		t.Fatalf("dynamic findings = %+v", dyn)
	}
	if !strings.Contains(dyn[0].Message, "(dynamic)") {
		t.Errorf("dynamic finding unmarked: %q", dyn[0].Message)
	}
}

// ExampleAnalyzeSource demonstrates the public API on the paper's
// Figure 8 double-lock bug.
func ExampleAnalyzeSource() {
	src := `
struct Inner { m: i32 }
fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
pub fn do_request(client: Arc<RwLock<Inner>>) {
    match connect(client.read().unwrap().m) {
        Ok(mbrs) => {
            let mut inner = client.write().unwrap();
            inner.m = mbrs;
        }
        Err(e) => {}
    };
}
`
	res, err := AnalyzeSource("figure8.rs", src)
	if err != nil {
		panic(err)
	}
	for _, f := range res.Detect("double-lock") {
		fmt.Printf("%s in %s\n", f.Kind, f.Function)
	}
	// Output:
	// double-lock in do_request
}
