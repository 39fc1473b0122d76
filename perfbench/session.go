package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"rustprobe"
	"rustprobe/internal/ast"
	"rustprobe/internal/corpus"
	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/parser"
	"rustprobe/internal/sessionpool"
)

const (
	sessionRepo = "bench/app"
	genModules  = 16 // generated modules beside the corpus
	editSlots   = 30 // functions whose bodies the common class edits
	treeSeed    = 1  // the base tree is the same app for every seed
	maxExtras   = 3  // files the structural class may have added at once
)

// topLevelName matches the item names two linked files must not share.
var topLevelName = regexp.MustCompile(`(?m)^\s*(?:(?:pub|unsafe|async|const)\s+)*(?:fn|struct|trait|enum|impl)\s+([A-Za-z_][A-Za-z0-9_]*)`)

// slot is an edit site: a fixed-width integer literal in a statement
// inserted at the top of one function body. Rewriting its six digits
// changes that body only and moves no byte of the file.
type slot struct {
	file string
	off  int
}

// sessionGen draws the op stream of session-edit and keeps the tree
// those ops produce. The base tree, its edit slots and the files the
// structural class adds are the same for every seed; the seed draws the
// order of the edits, their values and the structural kinds, so runs
// with different seeds do the same mix of work.
type sessionGen struct {
	rng      *rand.Rand
	mix      mix
	n        int
	tree     map[string]string
	slots    []slot
	order    []int // this round's slot order; every slot once per round
	sigFiles []string
	pool     []string // name-disjoint programs for file adds
	extras   []string // added files, oldest first
	added    int
}

func newSessionGen(seed int64) (*sessionGen, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &sessionGen{rng: rng, mix: mix{rng: rng, period: 5}, tree: map[string]string{}}
	files, err := corpus.Files(corpus.GroupAll)
	if err != nil {
		return nil, err
	}
	taken := map[string]bool{}
	for _, f := range files {
		g.tree[f.Path] = f.Content
		for _, m := range topLevelName.FindAllStringSubmatch(f.Content, -1) {
			taken[m[1]] = true
		}
	}
	progs := disjoint(rand.New(rand.NewSource(treeSeed)), taken, genModules+maxExtras+3)
	for i, src := range progs[:genModules] {
		name := fmt.Sprintf("gen/mod_%02d.rs", i)
		g.tree[name] = src + fmt.Sprintf("\nfn pb_sig_%02d(x: u32) -> u32 {\n    x\n}\n", i)
		g.sigFiles = append(g.sigFiles, name)
	}
	g.pool = progs[genModules:]
	if err := g.insertSlots(); err != nil {
		return nil, err
	}
	return g, nil
}

// disjoint generates n programs whose top-level names are pairwise
// distinct and distinct from taken.
func disjoint(rng *rand.Rand, taken map[string]bool, n int) []string {
	var out []string
	for len(out) < n {
		p := gen.Generate(rng.Int63())
		names := topLevelName.FindAllStringSubmatch(p.Source, -1)
		ok := true
		for _, m := range names {
			if taken[m[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, m := range names {
			taken[m[1]] = true
		}
		out = append(out, p.Source)
	}
	return out
}

// insertSlots puts an edit slot at the top of editSlots function bodies
// spread evenly over the tree's functions in file order.
func (g *sessionGen) insertSlots() error {
	type site struct {
		file string
		off  int // just past the body's opening brace
	}
	var sites []site
	names := make([]string, 0, len(g.tree))
	for n := range g.tree {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		crate, fset, diags := parser.ParseString(n, g.tree[n])
		if diags.HasErrors() {
			return fmt.Errorf("%s: %s", n, diags.String())
		}
		base := fset.Files()[0].Base
		for _, fn := range fnItems(crate.Items) {
			if fn.Body == nil || strings.HasPrefix(fn.Name, "pb_sig_") {
				continue
			}
			lo := fn.Body.Span().Start - base
			if lo >= 0 && lo < len(g.tree[n]) && g.tree[n][lo] == '{' {
				sites = append(sites, site{n, lo + 1})
			}
		}
	}
	if len(sites) > editSlots {
		picked := make([]site, editSlots)
		for k := range picked {
			picked[k] = sites[k*len(sites)/editSlots]
		}
		sites = picked
	}
	// Insert back to front within each file so offsets stay valid.
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].file != sites[j].file {
			return sites[i].file < sites[j].file
		}
		return sites[i].off > sites[j].off
	})
	for k, s := range sites {
		src := g.tree[s.file]
		g.tree[s.file] = src[:s.off] + fmt.Sprintf(" let _pb%d: u32 = 100000;", k) + src[s.off:]
	}
	for k, s := range sites {
		marker := fmt.Sprintf("_pb%d: u32 = ", k)
		g.slots = append(g.slots, slot{s.file, strings.Index(g.tree[s.file], marker) + len(marker)})
	}
	return nil
}

func fnItems(items []ast.Item) []*ast.FnItem {
	var out []*ast.FnItem
	for _, it := range items {
		switch it := it.(type) {
		case *ast.FnItem:
			out = append(out, it)
		case *ast.ImplItem:
			out = append(out, fnItems(it.Items)...)
		case *ast.TraitItem:
			out = append(out, fnItems(it.Items)...)
		}
	}
	return out
}

// next draws one push. Four in five rewrite one slot's literal, every
// slot once per round in a seeded order; the rest are structural: a
// signature edit, a file add or a file remove.
func (g *sessionGen) next() *op {
	o := &op{id: g.n, class: classCommon, changed: map[string]string{}}
	g.n++
	if !g.mix.minor() {
		if len(g.order) == 0 {
			g.order = g.rng.Perm(len(g.slots))
		}
		s := g.slots[g.order[0]]
		g.order = g.order[1:]
		src := g.tree[s.file]
		g.tree[s.file] = src[:s.off] + fmt.Sprintf("%06d", 100000+g.rng.Intn(900000)) + src[s.off+6:]
		o.changed[s.file] = g.tree[s.file]
		return o
	}
	o.class = classMinor
	switch k := g.rng.Intn(3); {
	case k == 0:
		name := g.sigFiles[g.rng.Intn(len(g.sigFiles))]
		src := g.tree[name]
		if strings.Contains(src, "(x: u32) -> u32") {
			src = strings.Replace(src, "(x: u32) -> u32", "(x: u64) -> u64", 1)
		} else {
			src = strings.Replace(src, "(x: u64) -> u64", "(x: u32) -> u32", 1)
		}
		g.tree[name] = src
		o.changed[name] = src
	case k == 1 && len(g.extras) < maxExtras, len(g.extras) == 0:
		name := fmt.Sprintf("gen/extra_%04d.rs", g.added)
		g.tree[name] = g.pool[g.added%len(g.pool)]
		g.added++
		g.extras = append(g.extras, name)
		o.changed[name] = g.tree[name]
	default:
		name := g.extras[0]
		g.extras = g.extras[1:]
		delete(g.tree, name)
		o.removed = []string{name}
	}
	return o
}

// sessionEdit pushes diffs to one live session of a sessionpool.Pool and
// checks every push against a stateless analysis of the same tree.
type sessionEdit struct {
	gen  *sessionGen
	pool *sessionpool.Pool
	buf  bytes.Buffer

	pushes, fullRounds, patched             int
	roots, lowered, reparsed, reused, facts int
	reasons                                 map[string]int
	counts                                  pipeCounts
	checks                                  int
}

func newSessionEdit(seed int64, _ string) (workload, error) {
	g, err := newSessionGen(seed)
	if err != nil {
		return nil, err
	}
	w := &sessionEdit{gen: g, pool: sessionpool.New(sessionpool.Config{}), reasons: map[string]int{}}
	res, err := w.pool.Push(context.Background(), sessionRepo, g.tree)
	if err == nil {
		err = w.compare(res)
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("first push: %v", err)
	}
	return w, nil
}

func (w *sessionEdit) next() *op { return w.gen.next() }

func (w *sessionEdit) do(o *op) error {
	t0 := time.Now()
	res, err := w.pool.PushDiff(context.Background(), sessionRepo, o.changed, o.removed)
	if err != nil {
		return err
	}
	o.push = res
	return encodeWire(&w.buf, pushWire{Findings: res.Findings, Stats: res.Stats,
		ElapsedMS: float64(time.Since(t0)) / float64(time.Millisecond)})
}

func (w *sessionEdit) settle() {}

// check compares the push with a stateless analysis, then collects the
// garbage of that analysis, so its collection never lands inside the
// next push.
func (w *sessionEdit) check(o *op) string {
	err := w.compare(o.push)
	runtime.GC()
	if err != nil {
		return err.Error()
	}
	return ""
}

// compare fails unless res carries exactly the findings of a stateless
// analysis of the current tree.
func (w *sessionEdit) compare(res *sessionpool.Result) error {
	st, err := rustprobe.AnalyzeFiles(w.gen.tree)
	if err != nil {
		return err
	}
	want := engine.FindingsFrom(st.Fset, st.Detect())
	if !bytes.Equal(findingsJSON(res.Findings), findingsJSON(want)) {
		return fmt.Errorf("push findings differ from a stateless analysis of the tree (%d vs %d)", len(res.Findings), len(want))
	}
	return nil
}

func (w *sessionEdit) traced(o *op, rec *recorder) string {
	defer runtime.GC() // as in check
	root := rec.begin("op")
	s := rec.begin("sessionpool.PushDiff")
	res, err := w.pool.PushDiff(context.Background(), sessionRepo, o.changed, o.removed)
	rec.end(s)
	if err == nil {
		s = rec.begin("encode.push")
		err = encodeWire(&w.buf, pushWire{Findings: res.Findings, Stats: res.Stats})
		rec.end(s)
	}
	rec.end(root)
	o.traced = rec.duration(root)
	if err != nil {
		return err.Error()
	}
	st := res.Stats
	w.pushes++
	if st.Full {
		w.fullRounds++
		reason, _, _ := strings.Cut(st.FullReason, ":")
		w.reasons[reason]++
	}
	if st.GraphPatched {
		w.patched++
	}
	w.roots += st.RootsDetected
	w.lowered += st.FuncsLowered
	w.reparsed += st.FilesReparsed
	w.reused += st.FindingsReused
	w.facts += st.GlobalFactsReused

	// The stateless check, replayed through the layer calls: it is the
	// cost of a full round, decomposed.
	check := rec.begin("check")
	out, err := tracedAnalyze(rec, w.gen.tree, false, &w.buf)
	rec.end(check)
	if err != nil {
		return err.Error()
	}
	w.counts.add(out.counts)
	w.checks++
	if !bytes.Equal(findingsJSON(out.findings), findingsJSON(res.Findings)) {
		return "traced stateless replay differs from the push's findings"
	}
	return ""
}

func (w *sessionEdit) layers(m layerMetrics, self selfTimer) {
	m.pipeline(self, w.counts, w.checks)
	n := float64(max(w.pushes, 1))
	m.set("sessionpool.push_ms", self.ms("sessionpool.PushDiff", w.pushes))
	m.set("session.roots_detected", float64(w.roots)/n)
	m.set("session.funcs_lowered", float64(w.lowered)/n)
	m.set("session.files_reparsed", float64(w.reparsed)/n)
	m.set("session.findings_reused", float64(w.reused)/n)
	m.set("session.global_facts_reused", float64(w.facts)/n)
	m.set("session.graph_patched_ratio", float64(w.patched)/n)
	m.set("session.full_round_ratio", float64(w.fullRounds)/n)
}

func (w *sessionEdit) notes() map[string]any {
	lines := 0
	for _, src := range w.gen.tree {
		lines += strings.Count(src, "\n")
	}
	return map[string]any{"full_reason": w.reasons, "tree_files": len(w.gen.tree), "tree_lines": lines}
}

func (w *sessionEdit) close() { w.pool.Close() }
