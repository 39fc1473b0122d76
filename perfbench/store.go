package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/store"
)

// workingSet is the number of programs seeded into the store: four
// times the engine's default LRU capacity (256), so most resubmissions
// are served from the store rather than the LRU.
const workingSet = 1024

// storeGen draws the op stream of store-restart: resubmissions of the
// seeded working set and, 1 op in 10, a byte-new program.
type storeGen struct {
	seed  int64
	rng   *rand.Rand
	mix   mix
	n     int
	progs []*gen.Program // the working set
	reqs  []engine.Request
}

func newStoreGen(seed int64) *storeGen {
	rng := rand.New(rand.NewSource(seed))
	g := &storeGen{seed: seed, rng: rng, mix: mix{rng: rng, period: 10}}
	for i := 0; i < workingSet; i++ {
		p := gen.Generate(rng.Int63())
		g.progs = append(g.progs, p)
		g.reqs = append(g.reqs, engine.Request{Files: map[string]string{"gen.rs": p.Source}})
	}
	return g
}

// next returns the next op and, for a resubmission, the index of the
// working-set program it resubmits (-1 for a byte-new program).
func (g *storeGen) next() (*op, int) {
	o := &op{id: g.n, class: classCommon}
	g.n++
	if g.mix.minor() {
		o.class = classMinor
		o.prog = gen.Generate(g.rng.Int63())
		o.req = engine.Request{Files: map[string]string{"gen.rs": o.prog.Source + fmt.Sprintf("\n// request %d-%d\n", g.seed, o.id)}}
		return o, -1
	}
	k := g.rng.Intn(len(g.reqs))
	o.req = g.reqs[k]
	return o, k
}

// storeRestart seeds a store through one engine, then serves
// resubmissions from a fresh engine opened on it: a daemon restart.
type storeRestart struct {
	gen                    *storeGen
	want                   [][]byte // per working-set program: its response at seeding
	dir                    string
	st                     *store.Store
	eng                    *engine.Engine
	shadow                 *store.Store // the traced run's miss path writes here
	buf                    bytes.Buffer
	gaps                   int
	counts                 pipeCounts
	hits, misses, putBytes int
}

func newStoreRestart(seed int64, dir string) (workload, error) {
	w := &storeRestart{gen: newStoreGen(seed), dir: dir}
	st, err := store.Open(filepath.Join(dir, "store"), engine.StoreVersion())
	if err != nil {
		return nil, err
	}
	seeder := engine.New(engine.Config{Store: st})
	for i, req := range w.gen.reqs {
		resp, err := seeder.Analyze(context.Background(), req)
		if err == nil {
			if fail, _ := labelVerdict(w.gen.progs[i], resp.Findings, false); fail != "" {
				err = fmt.Errorf("seeding: %s", fail)
			}
		}
		if err != nil {
			seeder.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		w.want = append(w.want, resultHash(resp))
	}
	seeder.Close() // drains the write-behind puts

	// The restart: a fresh handle and engine on the seeded directory.
	if w.st, err = store.Open(filepath.Join(dir, "store"), engine.StoreVersion()); err == nil {
		w.shadow, err = store.Open(filepath.Join(dir, "shadow"), engine.StoreVersion())
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.eng = engine.New(engine.Config{Store: w.st})
	return w, nil
}

// resultHash digests the part of a response that must not change
// between the seeding analysis and a later hit.
func resultHash(r *engine.Response) []byte {
	h := sha256.New()
	h.Write(findingsJSON(r.Findings))
	h.Write(mustJSON(r.Unsafe))
	return h.Sum(nil)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (w *storeRestart) next() *op {
	o, k := w.gen.next()
	if k >= 0 {
		o.want = w.want[k]
	}
	return o
}

func (w *storeRestart) do(o *op) error {
	resp, err := w.eng.Analyze(context.Background(), o.req)
	if err != nil {
		return err
	}
	o.resp = resp
	return encodeAnalyze(&w.buf, resp)
}

// settle gives the processor to the engine's write-behind put, so it
// runs between ops instead of inside the next op's latency.
func (w *storeRestart) settle() { runtime.Gosched() }

func (w *storeRestart) check(o *op) string {
	if o.class == classMinor {
		if o.resp.CacheHit {
			return "a byte-new program was served from a cache"
		}
		fail, gap := labelVerdict(o.prog, o.resp.Findings, false)
		if gap {
			w.gaps++
		}
		return fail
	}
	if !o.resp.CacheHit {
		return "a seeded program was analyzed again instead of served from the store"
	}
	if !bytes.Equal(resultHash(o.resp), o.want) {
		return "store hit differs from the response recorded at seeding"
	}
	return ""
}

func (w *storeRestart) traced(o *op, rec *recorder) string {
	if err := w.do(o); err != nil {
		return err.Error()
	}
	w.settle()
	if msg := w.check(o); msg != "" {
		return msg
	}
	root := rec.begin("op")
	got, err := w.tracedServe(o, rec)
	rec.end(root)
	o.traced = rec.duration(root)
	if err != nil {
		return err.Error()
	}
	if !sameResult(got.Findings, got.Unsafe, o.resp.Findings, o.resp.Unsafe) {
		return "traced replay differs from the untraced response"
	}
	return ""
}

// tracedServe replays the engine's read path for a hit (key, store read,
// decode, encode) or its miss path (key, store lookup, analysis,
// write-behind put) through the layer calls. Misses look up and write
// the shadow store, where the key is still new.
func (w *storeRestart) tracedServe(o *op, rec *recorder) (*engine.Response, error) {
	s := rec.begin("engine.Request.Key")
	key := o.req.Key()
	rec.end(s)
	if o.class == classCommon {
		s = rec.begin("store.Get")
		payload, ok := w.st.Get(key)
		rec.end(s)
		if !ok {
			return nil, fmt.Errorf("seeded key %s missing from the store", key)
		}
		s = rec.begin("store.decode")
		var resp engine.Response
		err := json.Unmarshal(payload, &resp)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("encode")
		err = encodeAnalyze(&w.buf, &resp)
		rec.end(s)
		w.hits++
		return &resp, err
	}
	s = rec.begin("store.Get.miss")
	_, found := w.shadow.Get(key)
	rec.end(s)
	if found {
		return nil, fmt.Errorf("byte-new key %s already stored", key)
	}
	out, err := tracedAnalyze(rec, o.req.Files, false, &w.buf)
	if err != nil {
		return nil, err
	}
	resp := &engine.Response{Findings: out.findings, Unsafe: out.unsafe}
	s = rec.begin("store.Put")
	payload, err := json.Marshal(resp)
	if err == nil {
		err = w.shadow.Put(key, payload)
	}
	rec.end(s)
	w.counts.add(out.counts)
	w.misses++
	w.putBytes += len(payload)
	return resp, err
}

func (w *storeRestart) layers(m layerMetrics, self selfTimer) {
	m.pipeline(self, w.counts, w.misses)
	ops := w.hits + w.misses
	m.set("engine.key_ms", self.ms("engine.Request.Key", ops))
	m.set("engine.encode_ms", self.ms("encode", ops))
	m.set("store.get_ms", self.ms("store.Get", w.hits))
	m.set("store.decode_ms", self.ms("store.decode", w.hits))
	m.set("store.put_ms", self.ms("store.Put", w.misses))
	m.set("store.entry_kb", float64(w.putBytes)/1024/float64(max(w.misses, 1)))
	es := w.eng.Stats()
	m.set("engine.lru_hit_ratio", ratio(es.CacheHits, es.CacheHits+es.CacheMisses))
	m.set("store.hit_ratio", ratio(es.StoreHits, es.StoreHits+es.StoreMisses))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (w *storeRestart) notes() map[string]any {
	es := w.eng.Stats()
	return map[string]any{"known_gaps": w.gaps, "working_set": len(w.want), "lru_capacity": es.CacheCapacity,
		"store_entries": es.StoreEntries, "store_hits": es.StoreHits, "lru_hits": es.CacheHits}
}

func (w *storeRestart) close() {
	w.eng.Close()
	os.RemoveAll(w.dir)
}
