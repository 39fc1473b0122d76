// Command perfbench is rustprobe's end-to-end benchmark. It drives one
// workload in-process through the public serving APIs the rustprobed
// daemon wraps (engine.Engine, sessionpool.Pool, store.Store), encodes
// every response the way the daemon does, checks every op's output, and
// prints its metrics as one JSON object on the last line of stdout:
//
//	perfbench --workload fleet-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced timed
// phase. With --trace 1 it performs the same ops again through each
// layer's public function, one span per call, and reports per-layer
// metrics from those spans. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/sessionpool"
)

// Op classes. Every workload has a common class and one minority class;
// percentiles are computed within a class.
const (
	classCommon = "common"
	classMinor  = "minor"
)

// mix draws op classes in blocks of period ops, with exactly one
// minority op at a seeded position in each block, so every run has the
// same class shares and only their order depends on the seed.
type mix struct {
	rng         *rand.Rand
	period, pos int
	i           int
}

func (m *mix) minor() bool {
	if m.i%m.period == 0 {
		m.pos = m.rng.Intn(m.period)
	}
	hit := m.i%m.period == m.pos
	m.i++
	return hit
}

// op is one request of a workload's seeded stream, with its response
// while it is being checked.
type op struct {
	id    int
	class string

	prog *gen.Program // fleet and store-restart misses: the label oracle
	req  engine.Request
	want []byte // store-restart hits: response recorded at seeding
	resp *engine.Response

	changed map[string]string // session-edit diff
	removed []string
	push    *sessionpool.Result

	traced time.Duration // traced run: wall time of the op's root span
}

// workload is one closed-loop client and the system it drives.
type workload interface {
	next() *op
	// do is the timed part of an op: one public call plus encoding of
	// its response.
	do(o *op) error
	// settle runs after the latency window and inside the CPU window,
	// so write-behind work lands between ops, not in the next op.
	settle()
	// check verifies o's response, untimed; "" means correct.
	check(o *op) string
	// traced performs o untraced, then again through the layer calls
	// with a span per call, and cross-checks the two. It sets o.traced.
	traced(o *op, rec *recorder) string
	layers(m layerMetrics, self selfTimer)
	notes() map[string]any
	close()
}

const (
	maxDumped = 200000 // spans a traced run writes out
	setupReps = 5      // set-ups per untraced run; setup_s is their median
)

// spec is a workload's set-up: its constructor and the number of
// untimed warm-up ops that end it, about half a second of work each.
type spec struct {
	setup  func(seed int64, dir string) (workload, error)
	warmup int
}

var specs = map[string]spec{
	"fleet-cold":    {func(seed int64, _ string) (workload, error) { return newFleet(seed) }, 150},
	"session-edit":  {newSessionEdit, 10},
	"store-restart": {newStoreRestart, 300},
}

func main() {
	name := flag.String("workload", "", "workload: fleet-cold, session-edit or store-restart")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced layer-by-layer run instead")
	out := flag.String("out", ".bench_build", "directory for stores and span dumps")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	if err := checkRegistry(); err != nil {
		fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	r := &run{name: *name, spec: sp, seed: *seed, dir: dir, dur: time.Duration(*seconds * float64(time.Second))}
	var res result
	if *trace == 1 {
		res, err = r.traced(filepath.Join(*out, "traces"))
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	notes, _ := json.Marshal(r.notes)
	fmt.Println(string(notes))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type run struct {
	name  string
	spec  spec
	seed  int64
	dir   string
	dur   time.Duration
	notes map[string]any
}

// phase accumulates one loop's outcomes.
type phase struct {
	lat       map[string][]float64 // ms, per class, correct ops only
	attempted int
	failed    int
	cpu       time.Duration // process CPU inside op windows
	fails     []string
	speed     *speedMeter // the timed phase's; nil elsewhere
}

func newPhase() *phase { return &phase{lat: map[string][]float64{}} }

func (p *phase) record(o *op, lat time.Duration, msg string) {
	p.attempted++
	if msg != "" {
		p.failed++
		if len(p.fails) < 5 {
			p.fails = append(p.fails, fmt.Sprintf("op %d (%s): %s", o.id, o.class, msg))
		}
		return
	}
	p.lat[o.class] = append(p.lat[o.class], float64(lat)/float64(time.Millisecond))
}

// step performs one untraced op: the latency window covers do, the CPU
// window do and settle; the check and the speed sample are outside both.
func step(w workload, p *phase) {
	o := w.next()
	c0 := cpuTime()
	t0 := time.Now()
	err := w.do(o)
	lat := time.Since(t0)
	w.settle()
	p.cpu += cpuTime() - c0
	msg := ""
	if err != nil {
		msg = err.Error()
	} else {
		msg = w.check(o)
	}
	p.record(o, lat, msg)
	if p.speed != nil {
		p.speed.tick()
	}
}

func (r *run) setup() (workload, time.Duration, *phase, error) {
	// Write back pending dirty data (earlier runs' stores, an earlier
	// set-up's deletions) so set-up does not pay for it.
	syscall.Sync()
	t0 := time.Now()
	w, err := r.spec.setup(r.seed, filepath.Join(r.dir, fmt.Sprintf("setup-%d", time.Now().UnixNano())))
	if err != nil {
		return nil, 0, nil, err
	}
	warm := newPhase()
	for i := 0; i < r.spec.warmup; i++ {
		step(w, warm)
	}
	return w, time.Since(t0), warm, nil
}

func (r *run) baseNotes(warm *phase) {
	r.notes = map[string]any{
		"workload": r.name,
		"seed":     r.seed,
		"controls": map[string]any{
			"gomaxprocs":         runtime.GOMAXPROCS(0),
			"loop":               "closed, one client",
			"gc_before_timed":    true,
			"warmup_ops":         r.spec.warmup,
			"setup_reps":         setupReps,
			"responses_retained": false,
			"percentiles":        "within class",
			"fs_type":            fsType(r.dir),
		},
		"warmup_failed": warm.failed,
	}
}

func (r *run) untraced() (result, error) {
	var (
		w      workload
		setups []float64
	)
	warm := newPhase() // the warm-ups of every set-up
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
			runtime.GC() // the next set-up starts from an empty heap
		}
		var (
			d   time.Duration
			wp  *phase
			err error
		)
		w, d, wp, err = r.setup()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		warm.attempted += wp.attempted
		warm.failed += wp.failed
		warm.fails = append(warm.fails, wp.fails...)
	}
	defer w.close()
	r.baseNotes(warm)
	r.notes["rss_peak_after_setup_mb"] = peakRSSMB()

	runtime.GC()
	p := newPhase()
	p.speed = &speedMeter{}
	end := time.Now().Add(r.dur)
	for time.Now().Before(end) {
		step(w, p)
	}
	ops := p.attempted
	common, minor := p.lat[classCommon], p.lat[classMinor]
	raw := map[string]float64{
		"p50_ms":        quantile(common, 0.5),
		"p90_ms":        quantile(common, 0.9),
		"minor_p50_ms":  quantile(minor, 0.5),
		"cpu_ms_per_op": float64(p.cpu) / float64(time.Millisecond) / float64(max(ops, 1)),
		"setup_s":       quantile(setups, 0.5),
	}
	// Times at the reference speed. Set-up is scaled by the factor of the
	// timed phase that follows it: that factor follows the host's drift
	// between periods, and kernels run right around each set-up did not
	// follow its faster noise, much of which is file system work.
	f := p.speed.factor()
	m := map[string]metric{"rss_peak_mb": {peakRSSMB(), "MB"}}
	for k, v := range raw {
		unit := "ms"
		if k == "setup_s" {
			unit = "s"
		}
		m[k] = metric{v * f, unit}
	}
	r.notes["raw"] = raw
	r.notes["speed"] = map[string]any{"factor": f, "kernel_p50_ms": quantile(p.speed.samples, 0.5),
		"kernel_samples": len(p.speed.samples), "ref_kernel_ms": refKernelMs}
	r.notes["setup_reps_s"] = setups
	r.notes["samples"] = map[string]int{classCommon: len(common), classMinor: len(minor)}
	r.notes["fails"] = append(warm.fails, p.fails...)
	for k, v := range w.notes() {
		r.notes[k] = v
	}
	failed := p.failed + warm.failed
	ok := failed == 0 && len(common) > 0 && len(minor) > 0
	return result{Correct: ok, Attempted: ops + warm.attempted, Failed: failed, Metrics: m}, nil
}

func (r *run) traced(traceDir string) (result, error) {
	w, _, warm, err := r.setup()
	if err != nil {
		return result{}, err
	}
	defer w.close()
	r.baseNotes(warm)

	// Untraced reference phase: the trace overhead's baseline and the
	// runtime's allocation and GC counts per op.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := newPhase()
	end := time.Now().Add(r.dur * 2 / 5)
	for time.Now().Before(end) {
		step(w, plain)
	}
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	rec := newRecorder()
	tp := newPhase()
	end = time.Now().Add(r.dur * 3 / 5)
	for time.Now().Before(end) {
		o := w.next()
		rec.startOp(o.id)
		msg := w.traced(o, rec)
		tp.record(o, o.traced, msg)
	}

	m := newLayerMetrics()
	ops := float64(max(plain.attempted, 1))
	m.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops)
	m.set("runtime.gc_per_op", float64(ms1.NumGC-ms0.NumGC)/ops)
	m.set("runtime.heap_live_mb", float64(live.HeapAlloc)/(1<<20))
	m.set("trace.overhead_ms", quantile(tp.lat[classCommon], 0.5)-quantile(plain.lat[classCommon], 0.5))
	w.layers(m, selfTimer(selfTimes(rec.spans)))

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
	// The metrics use every span; the dump keeps the first maxDumped.
	dumped := rec.spans[:min(len(rec.spans), maxDumped)]
	if err := writeSpans(spanFile, dumped); err != nil {
		return result{}, err
	}
	r.notes["spans"] = len(rec.spans)
	r.notes["spans_dumped"] = len(dumped)
	r.notes["span_file"] = spanFile
	r.notes["samples"] = map[string]int{"untraced_" + classCommon: len(plain.lat[classCommon]),
		"traced_" + classCommon: len(tp.lat[classCommon]), "traced_" + classMinor: len(tp.lat[classMinor])}
	r.notes["fails"] = append(append(warm.fails, plain.fails...), tp.fails...)
	r.notes["not_applicable"] = m.unset()
	for k, v := range w.notes() {
		r.notes[k] = v
	}
	failed := plain.failed + tp.failed + warm.failed
	out := make(map[string]metric, len(m.vals))
	for k, v := range m.vals {
		out[k] = metric{v, layerUnits[k]}
	}
	return result{Correct: failed == 0 && tp.attempted > 0, Attempted: plain.attempted + tp.attempted + warm.attempted,
		Failed: failed, Metrics: out}, nil
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir, for the run's notes.
func fsType(dir string) string {
	var st syscall.Statfs_t
	d := dir
	for {
		if err := syscall.Statfs(d, &st); err == nil {
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "unknown"
		}
		d = parent
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
