// Package doublelock implements the paper's §7.2 double-lock detector. It
// identifies every lock() / read() / write() call site, extracts the lock
// being acquired (a source-level path such as "self.client") and reads
// the guard lifetimes internal/detect/lockset computes: Rust releases a
// lock when the guard's lifetime ends, i.e. at its Drop/StorageDead or an
// explicit mem::drop. A second acquisition of the same lock while a guard
// is live is a double lock. The check is inter-procedural: per-function
// "locks acquired" summaries are propagated bottom-up and translated
// through receiver paths at call sites.
package doublelock

import (
	"fmt"
	"strings"

	"rustprobe/internal/detect"
	"rustprobe/internal/detect/lockset"
	"rustprobe/internal/mir"
	"rustprobe/internal/summary"
)

// Detector is the double-lock detector.
type Detector struct {
	// FlagReadRead also reports read()-after-read() on the same RwLock
	// (can deadlock when a writer is queued); defaults to false to match
	// the paper's reported-bug set.
	FlagReadRead bool
	// IntraOnly disables the bottom-up lock-set summaries (the ablation
	// in DESIGN.md's index): caller-holds/callee-locks bugs are then
	// missed.
	IntraOnly bool
}

// New returns the detector with default configuration.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "double-lock" }

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var summaries map[string]map[string]lockset.Mode
	if !d.IntraOnly {
		summaries = d.buildSummaries(ctx)
	}
	var out []detect.Finding
	for _, name := range ctx.Graph.Names() {
		out = append(out, d.checkFunction(ctx, name, summaries)...)
	}
	detect.SortFindings(out)
	return out
}

// buildSummaries computes, bottom-up over the call graph, the set of lock
// ids each function may acquire (transitively), expressed in its own
// namespace (only self-rooted and static ids propagate upward). The SCC
// fixpoint in internal/summary makes the propagation sound through
// mutual recursion and call chains of any length — the previous bounded
// two-round pass silently under-approximated cyclic call graphs.
func (d *Detector) buildSummaries(ctx *detect.Context) map[string]map[string]lockset.Mode {
	prob := &summary.Problem[map[string]lockset.Mode]{
		Bottom: func(string) map[string]lockset.Mode { return map[string]lockset.Mode{} },
		Equal: func(a, b map[string]lockset.Mode) bool {
			if len(a) != len(b) {
				return false
			}
			for id, m := range a {
				if bm, ok := b[id]; !ok || bm != m {
					return false
				}
			}
			return true
		},
		Transfer: func(name string, get summary.Lookup[map[string]lockset.Mode]) map[string]lockset.Mode {
			body := ctx.Bodies[name]
			s := map[string]lockset.Mode{}
			add := func(id string, mode lockset.Mode) {
				if cur, exists := s[id]; !exists || mode > cur {
					s[id] = mode
				}
			}
			for _, blk := range body.Blocks {
				c, ok := blk.Term.(mir.Call)
				if !ok {
					continue
				}
				if mode, isAcq := lockset.Acquire(c.Intrinsic); isAcq && c.RecvPath != "" {
					add(c.RecvPath, mode)
					continue
				}
				calleeName := ctx.Callee(c)
				if calleeName == "" {
					continue
				}
				cs, known := get(calleeName)
				if !known {
					continue
				}
				for id, mode := range cs {
					tid := summary.Translate(id, c.RecvPath)
					if tid == "" {
						continue
					}
					// Only ids that remain self-rooted or static are part
					// of this function's upward summary.
					if strings.HasPrefix(tid, "self") || strings.HasPrefix(tid, "static ") {
						add(tid, mode)
					}
				}
			}
			return s
		},
	}
	return summary.Compute(ctx.Graph, prob).Summaries
}

// conflicts reports whether acquiring `mode` on a lock already held in
// `heldMode` deadlocks.
func (d *Detector) conflicts(heldMode, mode lockset.Mode) bool {
	if heldMode == lockset.ModeRead && mode == lockset.ModeRead {
		return d.FlagReadRead
	}
	return true
}

func (d *Detector) checkFunction(ctx *detect.Context, name string, sums map[string]map[string]lockset.Mode) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)
	locks := ctx.Locks(name)

	var out []detect.Finding
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		held := lockset.Held(locks.Live.StateAt(blk.ID, len(blk.Stmts)), locks.Guards)

		if mode, isAcq := lockset.Acquire(c.Intrinsic); isAcq && c.RecvPath != "" {
			if heldMode, isHeld := held[c.RecvPath]; isHeld && d.conflicts(heldMode, mode) {
				out = append(out, detect.Finding{
					Kind:     detect.KindDoubleLock,
					Severity: detect.SeverityError,
					Function: name,
					Span:     c.Span,
					Message: fmt.Sprintf("%s() on %q while a %s guard of the same lock is still live",
						mode, c.RecvPath, heldMode),
					Notes: []string{
						"Rust releases a lock when the guard's lifetime ends; the first guard is still in scope here",
					},
				})
			}
			continue
		}

		// Inter-procedural: calling a function that (transitively)
		// acquires a lock we hold.
		calleeName := ctx.Callee(c)
		if calleeName == "" || len(held) == 0 {
			continue
		}
		for id, mode := range sums[calleeName] {
			tid := summary.Translate(id, c.RecvPath)
			if tid == "" {
				continue
			}
			if heldMode, isHeld := held[tid]; isHeld && d.conflicts(heldMode, mode) {
				out = append(out, detect.Finding{
					Kind:     detect.KindDoubleLock,
					Severity: detect.SeverityError,
					Function: name,
					Span:     c.Span,
					Message: fmt.Sprintf("call to %s acquires %q (%s) while a %s guard of the same lock is held",
						calleeName, tid, mode, heldMode),
					Notes: []string{
						fmt.Sprintf("%s acquires the lock internally; the caller's guard has not been dropped", calleeName),
					},
				})
			}
		}
	}
	return out
}
