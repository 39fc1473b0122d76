package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"rustprobe/internal/corpus"
	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
)

// fleetGen draws the op stream of fleet-cold: distinct small generated
// programs in default mode, and 1 op in 20 the whole corpus in precise
// mode, every file with an op-unique trailing comment so no
// content-keyed cache can answer.
type fleetGen struct {
	seed   int64
	rng    *rand.Rand
	mix    mix
	n      int
	corpus map[string]string
}

func newFleetGen(seed int64) (*fleetGen, error) {
	files, err := corpus.Files(corpus.GroupAll)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := &fleetGen{seed: seed, rng: rng, mix: mix{rng: rng, period: 20}, corpus: make(map[string]string, len(files))}
	for _, f := range files {
		g.corpus[f.Path] = f.Content
	}
	return g, nil
}

func (g *fleetGen) next() *op {
	o := &op{id: g.n, class: classCommon}
	suffix := fmt.Sprintf("\n// request %d-%d\n", g.seed, g.n)
	g.n++
	if g.mix.minor() {
		o.class = classMinor
		files := make(map[string]string, len(g.corpus))
		for p, src := range g.corpus {
			files[p] = src + suffix
		}
		o.req = engine.Request{Files: files, Precise: true}
		return o
	}
	o.prog = gen.Generate(g.rng.Int63())
	o.req = engine.Request{Files: map[string]string{"gen.rs": o.prog.Source + suffix}}
	return o
}

// fleet is fleet-cold: every op a full stateless analysis through an
// engine with caching off and no store.
type fleet struct {
	gen    *fleetGen
	eng    *engine.Engine
	buf    bytes.Buffer
	large  *engine.Response // the large class's answer, recorded in set-up
	gaps   int
	counts pipeCounts
	piped  int
	precs  int // traced precise analyses: the large ops
}

func newFleet(seed int64) (*fleet, error) {
	g, err := newFleetGen(seed)
	if err != nil {
		return nil, err
	}
	w := &fleet{gen: g, eng: engine.New(engine.Config{CacheCapacity: -1})}
	ref, err := w.eng.Analyze(context.Background(), engine.Request{Files: g.corpus, Precise: true})
	if err != nil {
		w.close()
		return nil, err
	}
	w.large = ref
	if msg := checkPatternRefs(ref.Findings); msg != "" {
		w.close()
		return nil, fmt.Errorf("large reference: %s", msg)
	}
	return w, nil
}

func (w *fleet) next() *op { return w.gen.next() }

func (w *fleet) do(o *op) error {
	resp, err := w.eng.Analyze(context.Background(), o.req)
	if err != nil {
		return err
	}
	o.resp = resp
	return encodeAnalyze(&w.buf, resp)
}

func (w *fleet) settle() {}

func (w *fleet) check(o *op) string {
	if o.class == classMinor {
		if !sameResult(o.resp.Findings, o.resp.Unsafe, w.large.Findings, w.large.Unsafe) {
			return "large response differs from the one recorded in set-up"
		}
		return checkPatternRefs(o.resp.Findings)
	}
	fail, gap := labelVerdict(o.prog, o.resp.Findings, false)
	if gap {
		w.gaps++
	}
	return fail
}

func (w *fleet) traced(o *op, rec *recorder) string {
	if err := w.do(o); err != nil {
		return err.Error()
	}
	if msg := w.check(o); msg != "" {
		return msg
	}
	root := rec.begin("op")
	out, err := tracedAnalyze(rec, o.req.Files, o.req.Precise, &w.buf)
	rec.end(root)
	o.traced = rec.duration(root)
	if err != nil {
		return err.Error()
	}
	w.counts.add(out.counts)
	w.piped++
	if o.req.Precise {
		w.precs++
	}
	if !sameResult(out.findings, out.unsafe, o.resp.Findings, o.resp.Unsafe) {
		return "traced replay differs from the untraced response"
	}
	return ""
}

func (w *fleet) layers(m layerMetrics, self selfTimer) {
	m.pipeline(self, w.counts, w.piped)
	// Only the large ops are precise: dropflow is timed per large op.
	m.set("dropflow.ms", self.ms("dropflow", w.precs))
}

func (w *fleet) notes() map[string]any {
	return map[string]any{"known_gaps": w.gaps, "precise_class": classMinor}
}

func (w *fleet) close() { w.eng.Close() }
