package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/incrstate"
)

// opDigest renders everything an op sends to the program.
func opDigest(o *op) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%v|%v|", o.id, o.class, o.req.Precise, o.removed)
	for _, files := range []map[string]string{o.req.Files, o.changed} {
		for _, n := range sortedKeys(files) {
			fmt.Fprintf(h, "%s\x00%s\x00", n, files[n])
		}
	}
	return fmt.Sprintf("%s %x", o.class, h.Sum(nil))
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// streams builds each workload's input generator for seed and draws n
// ops from it.
func streams(t *testing.T, seed int64, n int) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	fg, err := newFleetGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := newSessionGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	stg := newStoreGen(seed)
	for _, name := range sortedKeys(sg.tree) {
		out["session-tree"] = append(out["session-tree"], name+" "+fmt.Sprintf("%x", sha256.Sum256([]byte(sg.tree[name]))))
	}
	for i := 0; i < n; i++ {
		out["fleet"] = append(out["fleet"], opDigest(fg.next()))
		out["session"] = append(out["session"], opDigest(sg.next()))
		o, k := stg.next()
		out["store"] = append(out["store"], fmt.Sprintf("%s %d", opDigest(o), k))
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := streams(t, 42, 200), streams(t, 42, 200)
	for name, ops := range a {
		if len(ops) != len(b[name]) {
			t.Fatalf("%s: %d vs %d ops", name, len(ops), len(b[name]))
		}
		for i := range ops {
			if ops[i] != b[name][i] {
				t.Fatalf("%s: op %d differs between two generators of one seed", name, i)
			}
		}
	}
	c := streams(t, 43, 200)
	for _, name := range []string{"fleet", "session", "store"} {
		same := 0
		for i := range a[name] {
			if a[name][i] == c[name][i] {
				same++
			}
		}
		if same == len(a[name]) {
			t.Errorf("%s: seeds 42 and 43 drew the same ops", name)
		}
	}
}

func TestClassShares(t *testing.T) {
	for _, period := range []int{5, 10, 20} {
		m := mix{rng: newStoreGen(1).rng, period: period}
		for block := 0; block < 50; block++ {
			n := 0
			for i := 0; i < period; i++ {
				if m.minor() {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("period %d block %d: %d minority ops", period, block, n)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap,
	// and c [90,120], which sticks out of it; a has a child [15,25].
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "root", Start: 200, End: 210, Parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40 + 10, "a": 20, "b": 30, "c": 30, "a1": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.startOp(7)
	root := r.begin("op")
	child := r.begin("lexer.Tokenize")
	r.end(child)
	r.end(root)
	if r.spans[child].Parent != root || r.spans[root].Parent != -1 || r.spans[child].Op != 7 {
		t.Fatalf("bad span tree %+v", r.spans)
	}
	if r.duration(root) < r.duration(child) {
		t.Fatal("child outlasts its parent")
	}
}

// The speed kernel must not allocate: its time would then depend on the
// program's heap and garbage collector, and a change to the program
// would move the factor that scales the program's own times.
func TestSpeedKernel(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { kernel() }); n != 0 {
		t.Fatalf("kernel allocates %v times per run", n)
	}
	if f := (&speedMeter{}).factor(); f != 1 {
		t.Fatalf("factor without samples = %v, want 1", f)
	}
	s := &speedMeter{samples: []float64{2 * refKernelMs, refKernelMs / 2, 2 * refKernelMs}}
	if f := s.factor(); f != 0.5 {
		t.Fatalf("factor of a host at half the reference speed = %v, want 0.5", f)
	}
	s = &speedMeter{}
	s.tick()
	s.tick() // within speedEvery of the first: no sample
	if len(s.samples) != 1 || s.samples[0] <= 0 {
		t.Fatalf("samples %v", s.samples)
	}
}

// A check failure counts as a failed op, not as a latency sample.
func TestFailuresCounted(t *testing.T) {
	p := newPhase()
	p.record(&op{class: classCommon}, time.Millisecond, "")
	p.record(&op{class: classCommon}, time.Millisecond, "wrong answer")
	if p.attempted != 2 || p.failed != 1 || len(p.lat[classCommon]) != 1 {
		t.Fatalf("attempted %d failed %d samples %d", p.attempted, p.failed, len(p.lat[classCommon]))
	}
}

func cloneFindings(fs []engine.Finding) []engine.Finding {
	out := make([]engine.Finding, len(fs))
	copy(out, fs)
	return out
}

// The negative controls: a dropped finding and a shifted line must each
// fail the check of every class that can see them.
func TestNegativeControls(t *testing.T) {
	w, err := newFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	large := func(fs []engine.Finding) *op {
		return &op{class: classMinor, resp: &engine.Response{Findings: fs, Unsafe: w.large.Unsafe}}
	}
	if msg := w.check(large(w.large.Findings)); msg != "" {
		t.Fatalf("the recorded large response fails its own check: %s", msg)
	}
	dropped := cloneFindings(w.large.Findings)[1:]
	if w.check(large(dropped)) == "" {
		t.Error("large class: a dropped finding passed")
	}
	shifted := cloneFindings(w.large.Findings)
	shifted[0].Line++
	if w.check(large(shifted)) == "" {
		t.Error("large class: a shifted line passed")
	}

	// Small programs: the label rule.
	p := gen.New(3, gen.KindUseAfterFree, true)
	o := &op{class: classCommon, prog: p, req: engine.Request{Files: map[string]string{"gen.rs": p.Source}}}
	if err := w.do(o); err != nil {
		t.Fatal(err)
	}
	if msg := w.check(o); msg != "" {
		t.Fatalf("buggy program fails the label rule: %s", msg)
	}
	var kept []engine.Finding
	for _, f := range o.resp.Findings {
		if f.Kind != string(p.Kind) {
			kept = append(kept, f)
		}
	}
	o.resp.Findings = kept
	if w.check(o) == "" {
		t.Error("small class: dropping the injected finding passed")
	}
	clean := gen.New(4, gen.KindDoubleLock, false)
	o = &op{class: classCommon, prog: clean, resp: &engine.Response{Findings: []engine.Finding{{Kind: "double-lock", Line: 3}}}}
	if w.check(o) == "" {
		t.Error("small class: a finding on a clean program passed")
	}

	// Store hits: compared with the response recorded at seeding.
	sr := &storeRestart{}
	hit := &op{class: classCommon, want: resultHash(w.large)}
	hit.resp = &engine.Response{Findings: w.large.Findings, Unsafe: w.large.Unsafe, CacheHit: true}
	if msg := sr.check(hit); msg != "" {
		t.Fatalf("an identical hit fails: %s", msg)
	}
	hit.resp.Findings = shifted
	if sr.check(hit) == "" {
		t.Error("store hit: a shifted line passed")
	}
	hit.resp.Findings = dropped
	if sr.check(hit) == "" {
		t.Error("store hit: a dropped finding passed")
	}
}

func TestSessionPerturbedFindingFails(t *testing.T) {
	sw, err := newSessionEdit(5, "")
	if err != nil {
		t.Fatal(err)
	}
	w := sw.(*sessionEdit)
	defer w.close()
	o := w.next()
	if err := w.do(o); err != nil {
		t.Fatal(err)
	}
	if msg := w.check(o); msg != "" {
		t.Fatalf("an unperturbed push fails: %s", msg)
	}
	if len(o.push.Findings) == 0 {
		t.Fatal("the session tree has no findings to perturb")
	}
	for _, perturb := range []func(f *incrstate.Finding){
		func(f *incrstate.Finding) { f.Column++ },
		func(f *incrstate.Finding) { f.Message += "." },
		func(f *incrstate.Finding) { f.Kind = "blocking" },
	} {
		fs := append([]incrstate.Finding(nil), o.push.Findings...)
		perturb(&fs[len(fs)/2])
		bad := *o.push
		bad.Findings = fs
		if w.check(&op{push: &bad}) == "" {
			t.Error("a perturbed session finding passed")
		}
	}
	dropped := *o.push
	dropped.Findings = o.push.Findings[1:]
	if w.check(&op{push: &dropped}) == "" {
		t.Error("a dropped session finding passed")
	}
}

// The traced replay must reproduce the untraced responses: otherwise it
// would be measuring a different program.
func TestTracedReplayMatches(t *testing.T) {
	// The layers each workload must report, beyond the pipeline's.
	own := map[string][]string{
		"fleet-cold":    {"dropflow.ms"},
		"session-edit":  {"sessionpool.push_ms", "session.roots_detected"},
		"store-restart": {"store.get_ms", "store.put_ms", "engine.key_ms", "store.hit_ratio"},
	}
	for name, sp := range specs {
		w, err := sp.setup(9, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := newRecorder()
		for i := 0; i < 40; i++ {
			o := w.next()
			rec.startOp(o.id)
			if msg := w.traced(o, rec); msg != "" {
				t.Fatalf("%s op %d: %s", name, o.id, msg)
			}
		}
		m := newLayerMetrics()
		w.layers(m, selfTimer(selfTimes(rec.spans)))
		for _, k := range append([]string{"lexer.ms", "detect.blocking.ms", "engine.encode_ms"}, own[name]...) {
			if m.vals[k] <= 0 {
				t.Errorf("%s: %s = %v", name, k, m.vals[k])
			}
		}
		w.close()
	}
}
