package main

import (
	"sort"
	"time"
)

// layerUnits lists every per-layer metric with its unit. A workload
// that does not reach a layer reports 0 for it and names it under
// "not_applicable" in the run's notes.
var layerUnits = map[string]string{
	"source.ms":                        "ms",
	"lexer.ms":                         "ms",
	"lexer.tokens":                     "count",
	"parser.ms":                        "ms",
	"resolve.ms":                       "ms",
	"lower.ms":                         "ms",
	"lower.bodies":                     "count",
	"mir.blocks":                       "count",
	"callgraph.ms":                     "ms",
	"callgraph.edges":                  "count",
	"cfg.ms":                           "ms",
	"pointsto.ms":                      "ms",
	"dropflow.ms":                      "ms",
	"detect.use-after-free.ms":         "ms",
	"detect.double-lock.ms":            "ms",
	"detect.conflicting-lock-order.ms": "ms",
	"detect.blocking.ms":               "ms",
	"detect.drop-bugs.ms":              "ms",
	"detect.uninitialized-read.ms":     "ms",
	"detect.interior-mutability.ms":    "ms",
	"detect.race.ms":                   "ms",
	"detect.findings":                  "count",
	"unsafety.ms":                      "ms",
	"engine.key_ms":                    "ms",
	"engine.encode_ms":                 "ms",
	"engine.lru_hit_ratio":             "ratio",
	"store.get_ms":                     "ms",
	"store.decode_ms":                  "ms",
	"store.hit_ratio":                  "ratio",
	"store.put_ms":                     "ms",
	"store.entry_kb":                   "KiB",
	"sessionpool.push_ms":              "ms",
	"session.roots_detected":           "count",
	"session.funcs_lowered":            "count",
	"session.files_reparsed":           "count",
	"session.findings_reused":          "count",
	"session.global_facts_reused":      "count",
	"session.graph_patched_ratio":      "ratio",
	"session.full_round_ratio":         "ratio",
	"runtime.alloc_kb_per_op":          "KiB",
	"runtime.gc_per_op":                "count",
	"runtime.heap_live_mb":             "MB",
	"trace.overhead_ms":                "ms",
}

// layerMetrics holds one traced run's per-layer values; every name in
// layerUnits starts at 0 and unset.
type layerMetrics struct {
	vals  map[string]float64
	given map[string]bool
}

func newLayerMetrics() layerMetrics {
	m := layerMetrics{vals: make(map[string]float64, len(layerUnits)), given: map[string]bool{}}
	for k := range layerUnits {
		m.vals[k] = 0
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("unknown per-layer metric " + name)
	}
	m.vals[name] = v
	m.given[name] = true
}

// unset lists the metrics no layer of this workload reported.
func (m layerMetrics) unset() []string {
	var out []string
	for k := range m.vals {
		if !m.given[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// pipeline sets the metrics of a stateless analysis, per analysis,
// from n traced analyses that did the work in c.
func (m layerMetrics) pipeline(self selfTimer, c pipeCounts, n int) {
	m.set("source.ms", self.ms("source.FileSet.Add", n))
	m.set("lexer.ms", self.ms("lexer.Tokenize", n))
	// ParseFile tokenizes again internally: its parser share is its
	// time minus that of the separate Tokenize call on the same file.
	m.set("parser.ms", self.ms("parser.ParseFile", n)-self.ms("lexer.Tokenize", n))
	m.set("resolve.ms", self.ms("resolve.Crates", n))
	m.set("lower.ms", self.ms("lower.Program", n))
	m.set("callgraph.ms", self.ms("callgraph.Build", n))
	m.set("cfg.ms", self.ms("cfg.New", n))
	m.set("pointsto.ms", self.ms("pointsto", n))
	for _, d := range detectors(false) {
		m.set("detect."+d.Name()+".ms", self.ms("detect."+d.Name(), n))
	}
	m.set("unsafety.ms", self.ms("unsafety.Scan", n))
	m.set("engine.encode_ms", self.ms("encode", n))
	per := func(x int) float64 { return float64(x) / float64(max(n, 1)) }
	m.set("lexer.tokens", per(c.tokens))
	m.set("lower.bodies", per(c.bodies))
	m.set("mir.blocks", per(c.blocks))
	m.set("callgraph.edges", per(c.edges))
	m.set("detect.findings", per(c.findings))
}

// selfTimer is the summed self time per span name.
type selfTimer map[string]time.Duration

// ms is name's self time per op over n ops, in milliseconds.
func (s selfTimer) ms(name string, n int) float64 {
	return float64(s[name]) / float64(time.Millisecond) / float64(max(n, 1))
}
