// Package detect defines the shared detector infrastructure: the Finding
// type, the analysis Context handed to each detector, and the registry of
// built-in detectors (the paper's two headline detectors plus the
// extensions its §7 recommendations call for).
package detect

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rustprobe/internal/callgraph"
	"rustprobe/internal/cfg"
	"rustprobe/internal/detect/lockset"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/pointsto"
	"rustprobe/internal/source"
)

// Kind classifies a finding.
type Kind string

// Finding kinds.
const (
	KindUseAfterFree Kind = "use-after-free"
	KindDoubleLock   Kind = "double-lock"
	KindLockOrder    Kind = "conflicting-lock-order"
	KindDoubleFree   Kind = "double-free"
	KindInvalidFree  Kind = "invalid-free"
	KindUninitRead   Kind = "uninitialized-read"
	KindInteriorMut  Kind = "unsynchronized-interior-mutability"
	KindDataRace     Kind = "data-race"
	KindBlocking     Kind = "blocking"
)

// Severity ranks findings.
type Severity int

// Severity levels.
const (
	SeverityWarning Severity = iota
	SeverityError
)

func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Finding is one detector report.
type Finding struct {
	Kind     Kind
	Severity Severity
	Function string // qualified function name
	Span     source.Span
	Message  string
	Notes    []string
}

// Format renders the finding with a resolved position.
func (f Finding) Format(fset *source.FileSet) string {
	pos := fset.Position(f.Span.Start)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s: [%s] %s (in %s)", pos, f.Severity, f.Kind, f.Message, f.Function)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\n    note: %s", n)
	}
	return b.String()
}

// Context carries everything a detector needs. Program, Bodies, Graph
// and Fset are immutable after NewContext, and the per-function caches
// are mutex-guarded, so independent detectors may share one Context from
// concurrent goroutines. The caches live as long as the Context: one
// analysis round.
type Context struct {
	Program *hir.Program
	Bodies  map[string]*mir.Body
	Graph   *callgraph.Graph
	Fset    *source.FileSet

	cfgs  memo[*cfg.Graph]
	locks memo[*lockset.Locks]
	paths memo[*lockset.Resolver]
	pts   memo[*pointsto.Result]

	dropOnce sync.Once
	dropSums map[string]*dropflow.FnSummary
	dropRes  memo[*dropflow.Result]
}

// memo caches one per-function fact. The computation runs outside the
// lock so concurrent detectors never serialize on each other's analyses;
// when two race, the first stored value wins and the other is discarded,
// so every caller sees one pointer per function. A computation that
// panics stores nothing.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]T
}

func (m *memo[T]) get(fn string, compute func() T) T {
	m.mu.Lock()
	if v, ok := m.m[fn]; ok {
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()
	v := compute()
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.m[fn]; ok {
		return prev
	}
	if m.m == nil {
		m.m = map[string]T{}
	}
	m.m[fn] = v
	return v
}

// NewContext builds a Context, precomputing the call graph.
func NewContext(prog *hir.Program, bodies map[string]*mir.Body) *Context {
	return NewContextWithGraph(prog, bodies, callgraph.Build(bodies))
}

// NewContextWithGraph builds a Context around a caller-supplied call
// graph — the incremental session path, where the graph is patched
// in place per round instead of rebuilt from the full body set. The
// graph must describe exactly the given bodies.
func NewContextWithGraph(prog *hir.Program, bodies map[string]*mir.Body, g *callgraph.Graph) *Context {
	return &Context{
		Program: prog,
		Bodies:  bodies,
		Graph:   g,
		Fset:    prog.Fset,
	}
}

// CFG returns (caching) the control-flow graph of a function's body. The
// Graph is shared by every detector and must be treated as immutable.
func (c *Context) CFG(fn string) *cfg.Graph {
	return c.cfgs.get(fn, func() *cfg.Graph { return cfg.New(c.Bodies[fn]) })
}

// Locks returns (caching) a function's guard origins and guard liveness.
func (c *Context) Locks(fn string) *lockset.Locks {
	return c.locks.get(fn, func() *lockset.Locks { return lockset.Analyze(c.Bodies[fn], c.CFG(fn)) })
}

// Paths returns (caching) a function's alias resolver, which names its
// places in the lock-id path language.
func (c *Context) Paths(fn string) *lockset.Resolver {
	return c.paths.get(fn, func() *lockset.Resolver {
		return lockset.NewResolver(c.Bodies[fn], c.Locks(fn), c.PointsTo(fn))
	})
}

// Callee resolves a call to the name of a body in this context: the
// resolver's definition when it has a body, else the callee text, else
// "" for a call that leaves the analyzed program.
func (c *Context) Callee(call mir.Call) string {
	if call.Def != nil {
		if _, ok := c.Bodies[call.Def.Qualified]; ok {
			return call.Def.Qualified
		}
	}
	if _, ok := c.Bodies[call.Callee]; ok {
		return call.Callee
	}
	return ""
}

// PointsTo returns (caching) the points-to result for a function. Unknown
// function names yield an empty, uncached result rather than panicking on
// a nil body.
func (c *Context) PointsTo(fn string) *pointsto.Result {
	body := c.Bodies[fn]
	if body == nil {
		return &pointsto.Result{PointsTo: map[mir.LocalID]map[mir.LocalID]bool{}}
	}
	return c.pts.get(fn, func() *pointsto.Result { return pointsto.Analyze(body) })
}

// DropFlowSummaries returns (computing once) the shared context-sensitive
// parameter-dereference summaries used by the precise detectors. The map
// and the summaries it holds are shared across detectors and must be
// treated as immutable.
func (c *Context) DropFlowSummaries() map[string]*dropflow.FnSummary {
	c.dropOnce.Do(func() {
		c.dropSums = dropflow.ComputeSummaries(c.Bodies, c.Graph)
	})
	return c.dropSums
}

// DropFlow returns (caching) the path-sensitive drop-and-alias walk for a
// function. The shared Result must be treated as immutable by all
// detectors.
func (c *Context) DropFlow(fn string) *dropflow.Result {
	return c.dropRes.get(fn, func() *dropflow.Result {
		sums := c.DropFlowSummaries()
		return dropflow.Analyze(c.Bodies[fn], dropflow.Options{Lookup: func(name string) (*dropflow.FnSummary, bool) {
			s, ok := sums[name]
			return s, ok
		}})
	})
}

// Detector is one analysis pass over a Context.
type Detector interface {
	Name() string
	Run(*Context) []Finding
}

// Carry is a detector's opaque incremental fact cache, threaded between
// rounds by the session. Carries hold per-function extraction results
// keyed by body identity; they are process-local and never serialized.
type Carry interface{}

// Incremental is a detector whose whole-program pass splits into
// per-function fact extraction (cacheable) and a cheap global pairing
// phase. RunIncremental re-extracts facts only for functions in dirty
// (or whose cached body no longer matches), warm-starts any summary
// fixpoints from the carry, and re-runs pairing over the full fact set.
//
// The contract is byte-identity: RunIncremental(ctx, carry, dirty) must
// return exactly the findings Run(ctx) would, for any carry produced by
// a prior round whose unchanged functions kept their body objects. A
// nil carry (or nil dirty) degrades to a full extraction and seeds a
// fresh carry. The int is the number of functions whose cached facts
// were reused, for serving-layer stats.
//
// Callers must not thread a carry across a round that changed the set
// of function names or anything outside function bodies: cached facts
// embed call resolution, which such changes can flip without touching
// the caller's body. The session enforces this by rebuilding from
// scratch (dropping carries) on any interface or file-set change.
type Incremental interface {
	Detector
	RunIncremental(ctx *Context, carry Carry, dirty map[string]bool) ([]Finding, Carry, int)
}

// FactCounter is the optional sizing interface a Carry may implement;
// the session's exported-state manifest records the counts so operators
// can see how much process-local cache a restart will cost.
type FactCounter interface {
	FactCount() int
}

// CloseOverCallers expands a recompute set in place with the transitive
// callers of its members — the closure summary.ComputeFrom requires
// before a warm-started fixpoint may reuse an SCC: a clean function must
// have no recomputed transitive callee, or its cached summary could be
// stale. Fact extraction stays per-function; only the summary phase
// widens to this closure.
func CloseOverCallers(g *callgraph.Graph, recompute map[string]bool) {
	if len(recompute) == 0 {
		return
	}
	seeds := make([]string, 0, len(recompute))
	for n := range recompute {
		seeds = append(seeds, n)
	}
	for n := range g.TransitiveCallers(seeds...) {
		recompute[n] = true
	}
}

// SortFindings orders findings by position then kind for stable output.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Span.Start != fs[j].Span.Start {
			return fs[i].Span.Start < fs[j].Span.Start
		}
		return fs[i].Kind < fs[j].Kind
	})
}
