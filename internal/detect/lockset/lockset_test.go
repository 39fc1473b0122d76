package lockset

import (
	"sort"
	"strings"
	"testing"

	"rustprobe/internal/cfg"
	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/pointsto"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

func lowerFn(t *testing.T, src, fn string) *mir.Body {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("test.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	body, ok := lower.Program(prog, diags)[fn]
	if !ok {
		t.Fatalf("no body %q", fn)
	}
	return body
}

// heldAtCalls lists, per call terminator with the given method name, the
// locks held when the call runs, rendered "a,b".
func heldAtCalls(body *mir.Body, locks *Locks, method string) []string {
	var out []string
	for _, blk := range body.Blocks {
		c, ok := blk.Term.(mir.Call)
		if !ok || mir.MethodName(c.Callee) != method {
			continue
		}
		var ids []string
		for id := range Held(locks.Live.StateAt(blk.ID, len(blk.Stmts)), locks.Guards) {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out = append(out, strings.Join(ids, ","))
	}
	return out
}

func namedGuards(body *mir.Body, guards map[mir.LocalID]Guard) map[string]Guard {
	out := map[string]Guard{}
	for l, g := range guards {
		if n := body.Local(l).Name; n != "" {
			out[n] = g
		}
	}
	return out
}

func TestGuardsFollowUnwrapMovesTryLockAndWait(t *testing.T) {
	body := lowerFn(t, `
struct S { m: Mutex<i32>, rw: RwLock<i32>, cv: Condvar }
impl S {
    fn f(&self) {
        let g = self.m.lock().unwrap();
        let moved = g;
        let r = self.rw.read().unwrap();
        let w = self.rw.write().unwrap();
        let t = self.m.try_lock().unwrap();
        let back = self.cv.wait(moved).unwrap();
    }
}
`, "S::f")
	got := namedGuards(body, Guards(body))
	want := map[string]Guard{
		"g":     {Lock: "self.m", Mode: ModeLock},
		"moved": {Lock: "self.m", Mode: ModeLock},
		"r":     {Lock: "self.rw", Mode: ModeRead},
		"w":     {Lock: "self.rw", Mode: ModeWrite},
		"t":     {Lock: "self.m", Mode: ModeLock},
		"back":  {Lock: "self.m", Mode: ModeLock},
	}
	for name, g := range want {
		if got[name] != g {
			t.Errorf("guard of %s = %+v, want %+v", name, got[name], g)
		}
	}
}

func TestLiveGuardsReleaseOnDropAndMove(t *testing.T) {
	body := lowerFn(t, `
struct Holder { g: MutexGuard<i32> }
fn consume(g: MutexGuard<i32>) {}
fn f(a: Mutex<i32>, b: Mutex<i32>) {
    let g = a.lock().unwrap();
    probe();
    drop(g);
    probe();
    let h = a.lock().unwrap();
    consume(h);
    probe();
    let k = b.lock().unwrap();
    let hold = Holder { g: k };
    probe();
    let j = b.lock().unwrap();
    mem::forget(j);
    probe();
}
`, "f")
	locks := Analyze(body, cfg.New(body))
	got := heldAtCalls(body, locks, "probe")
	// A forgotten guard never runs its drop, so its lock stays held.
	want := []string{"a", "", "", "", "b"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("held at probe() = %q, want %q", got, want)
	}
}

func TestHeldMergesModesWriteFirst(t *testing.T) {
	body := lowerFn(t, `
fn f(rw: RwLock<i32>) {
    let r = rw.read().unwrap();
    let w = rw.write().unwrap();
    probe();
}
`, "f")
	locks := Analyze(body, cfg.New(body))
	for _, blk := range body.Blocks {
		if c, ok := blk.Term.(mir.Call); ok && c.Callee == "probe" {
			held := Held(locks.Live.StateAt(blk.ID, len(blk.Stmts)), locks.Guards)
			if held["rw"] != ModeWrite {
				t.Errorf("held = %v, want rw(write)", held)
			}
			return
		}
	}
	t.Fatal("no probe() call")
}

func TestResolverCanonicalizesHandlesAndGuards(t *testing.T) {
	body := lowerFn(t, `
struct Q { items: Vec<i32> }
fn f(service: Arc<Mutex<Q>>, data: Vec<i32>) {
    let svc = Arc::clone(&service);
    let (tx, rx) = mpsc::channel();
    let tx2 = tx.clone();
    let copy = data.clone();
    let g = svc.lock().unwrap();
    probe(&g.items);
}
`, "f")
	locks := Analyze(body, cfg.New(body))
	r := NewResolver(body, locks, pointsto.Analyze(body))
	for name, want := range map[string]string{
		"svc":  "service", // Arc::clone aliases
		"tx2":  "tx",      // a Sender clone is another handle to one channel
		"copy": "copy",    // a deep clone of owned data is fresh storage
		"g":    "svc",     // a guard names its lock's path
	} {
		if got := r.CanonName(name); got != want {
			t.Errorf("CanonName(%s) = %q, want %q", name, got, want)
		}
	}
	if got := r.CanonPath("svc.items"); got != "service.items" {
		t.Errorf("CanonPath(svc.items) = %q", got)
	}
	if got := r.CanonPath("static CONFIG.x"); got != "static CONFIG.x" {
		t.Errorf("CanonPath(static CONFIG.x) = %q", got)
	}
	for _, blk := range body.Blocks {
		if c, ok := blk.Term.(mir.Call); ok && c.Callee == "probe" {
			if held := r.Held(blk.ID, len(blk.Stmts)); held["service"] != ModeLock || len(held) != 1 {
				t.Errorf("canonical held set = %v, want service(lock)", held)
			}
			return
		}
	}
	t.Fatal("no probe() call")
}

func TestPathHelpers(t *testing.T) {
	for _, tc := range []struct {
		path, root string
		depth      int
	}{
		{"self", "self", 1},
		{"self.a.b", "self", 3},
		{"jobs[_]", "jobs", 2},
		{"static C", "static C", 1},
		{"static C.x[_]", "static C", 3},
	} {
		if got := PathRoot(tc.path); got != tc.root {
			t.Errorf("PathRoot(%q) = %q, want %q", tc.path, got, tc.root)
		}
		if got := PathDepth(tc.path); got != tc.depth {
			t.Errorf("PathDepth(%q) = %d, want %d", tc.path, got, tc.depth)
		}
	}
	if got := RewriteRoot("svc.items[_]", "svc", "service"); got != "service.items[_]" {
		t.Errorf("RewriteRoot = %q", got)
	}
	if got := RewriteRoot("svc", "svc", "service"); got != "service" {
		t.Errorf("RewriteRoot(bare) = %q", got)
	}
}

func TestLockHelpers(t *testing.T) {
	locks := map[string]Mode{"p.m": ModeLock, "self.rw": ModeRead, "local": ModeWrite}
	c := CloneLocks(locks)
	c["extra"] = ModeLock
	if _, leaked := locks["extra"]; leaked {
		t.Error("CloneLocks shares its map")
	}
	got := TranslateLocks(locks, []string{"self", "p"}, []string{"st", "q"})
	if len(got) != 2 || got["q.m"] != ModeLock || got["st.rw"] != ModeRead {
		t.Errorf("TranslateLocks = %v", got)
	}
	if s := LocksString(locks); s != "local(write), p.m(lock), self.rw(read)" {
		t.Errorf("LocksString = %q", s)
	}
	if s := LocksString(nil); s != "no locks" {
		t.Errorf("LocksString(nil) = %q", s)
	}
}

func TestLiveGuardsTryLockFieldStoreAndWait(t *testing.T) {
	body := lowerFn(t, `
struct Holder { slot: MutexGuard<i32> }
struct S { m: Mutex<i32>, cv: Condvar }
impl S {
    fn f(&self, h: Holder) {
        let t = self.m.try_lock().unwrap();
        probe();
        h.slot = t;
        probe();
        let g = self.m.lock().unwrap();
        let g2 = self.cv.wait(g).unwrap();
        probe();
    }
}
`, "S::f")
	locks := Analyze(body, cfg.New(body))
	got := heldAtCalls(body, locks, "probe")
	// try_lock holds; a store into a field moves the guard out of the
	// local; wait hands the reacquired guard to its result.
	want := []string{"self.m", "", "self.m"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("held at probe() = %q, want %q", got, want)
	}
}

func TestResolverForwardsReferences(t *testing.T) {
	body := lowerFn(t, `
fn f(data: Vec<i32>) {
    let r = &data;
    let r2 = r;
    let r3 = r2.clone();
    let p = &data as *const Vec<i32>;
    probe(r3[0]);
}
`, "f")
	r := NewResolver(body, Analyze(body, cfg.New(body)), pointsto.Analyze(body))
	for name, want := range map[string]string{
		"r":       "data", // a reference names its referent
		"r2":      "data", // moves forward the alias
		"r3":      "data", // cloning a reference copies the handle
		"p":       "data", // a cast keeps the referent
		"missing": "",
	} {
		if got := r.CanonName(name); got != want {
			t.Errorf("CanonName(%s) = %q, want %q", name, got, want)
		}
	}
	l, ok := r.Local("r3")
	if !ok {
		t.Fatal("Local(r3) not found")
	}
	if got := r.PlacePath(mir.PlaceOf(l).WithProj(mir.DerefProj{}).WithProj(mir.IndexProj{})); got != "data[_]" {
		t.Errorf("PlacePath(*r3[_]) = %q, want data[_]", got)
	}
	if _, ok := r.Local("missing"); ok {
		t.Error("Local(missing) found a local")
	}
}
