// Package lockset is the per-body lock substrate every lock-aware detector
// reads: which locals hold a lock guard (and of which lock), where those
// guards are live, and the alias resolver that names MIR places in the
// source-level path language lock identities use ("self.client", "queue",
// "static COUNTER"). Rust releases a lock when its guard's lifetime ends,
// at its Drop/StorageDead or an explicit mem::drop, so guard liveness is
// the held-lock set.
//
// The package computes facts for one body and knows nothing of the
// analysis context; detect.Context memoizes them per function so the
// double-lock, lock-order, race and blocking detectors share one copy.
package lockset

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/cfg"
	"rustprobe/internal/dataflow"
	"rustprobe/internal/mir"
	"rustprobe/internal/summary"
)

// Mode distinguishes guard kinds.
type Mode int

// Guard modes.
const (
	ModeLock  Mode = iota // Mutex::lock
	ModeRead              // RwLock::read
	ModeWrite             // RwLock::write
)

func (m Mode) String() string {
	switch m {
	case ModeRead:
		return "read"
	case ModeWrite:
		return "write"
	default:
		return "lock"
	}
}

// Guard describes a guard-holding local: the lock it came from (a
// source-level path such as "self.client") and the acquisition mode.
type Guard struct {
	Lock string
	Mode Mode
}

// Acquire maps a blocking acquisition intrinsic (lock, read, write) to
// its guard mode. try_lock is not one: it never blocks.
func Acquire(i mir.Intrinsic) (Mode, bool) {
	switch i {
	case mir.IntrinsicLock:
		return ModeLock, true
	case mir.IntrinsicRead:
		return ModeRead, true
	case mir.IntrinsicWrite:
		return ModeWrite, true
	}
	return ModeLock, false
}

// Locks is one body's lock facts: the guard origin of each guard-holding
// local and the forward liveness of those guards. Shared between
// detectors; treat as immutable.
type Locks struct {
	Guards map[mir.LocalID]Guard
	Live   *dataflow.Result
}

// Analyze computes a body's guard origins and their liveness over g.
func Analyze(body *mir.Body, g *cfg.Graph) *Locks {
	guards := Guards(body)
	return &Locks{Guards: guards, Live: LiveGuards(body, g, guards)}
}

// Guards statically assigns a Guard to each local that may hold
// a guard, by propagating from acquiring calls through moves and unwrap.
func Guards(body *mir.Body) map[mir.LocalID]Guard {
	origins := map[mir.LocalID]Guard{}
	changed := true
	for changed {
		changed = false
		set := func(l mir.LocalID, gi Guard) {
			if _, ok := origins[l]; !ok {
				origins[l] = gi
				changed = true
			}
		}
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(mir.Assign)
				if !ok || !as.Place.IsLocal() {
					continue
				}
				if use, ok := as.Rvalue.(mir.Use); ok {
					if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
						if gi, has := origins[pl.Local]; has {
							set(as.Place.Local, gi)
						}
					}
				}
			}
			if c, ok := blk.Term.(mir.Call); ok && c.Dest.IsLocal() {
				if mode, isAcq := Acquire(c.Intrinsic); isAcq && c.RecvPath != "" {
					set(c.Dest.Local, Guard{Lock: c.RecvPath, Mode: mode})
				}
				// A successful try_lock also yields a guard that blocks a
				// later lock(); the try itself never deadlocks.
				if c.Intrinsic == mir.IntrinsicTryLock && c.RecvPath != "" {
					set(c.Dest.Local, Guard{Lock: c.RecvPath, Mode: ModeLock})
				}
				switch c.Intrinsic {
				case mir.IntrinsicUnwrap, mir.IntrinsicTryLock, mir.IntrinsicCondvarWait:
					argIdx := 0
					if c.Intrinsic == mir.IntrinsicCondvarWait {
						argIdx = 1
					}
					if argIdx < len(c.Args) {
						if pl, ok := mir.OperandPlace(c.Args[argIdx]); ok && pl.IsLocal() {
							if gi, has := origins[pl.Local]; has {
								set(c.Dest.Local, gi)
							}
						}
					}
				}
			}
		}
	}
	return origins
}

// LiveGuards runs the forward may-analysis: bit l set means local l holds
// a live (unreleased) guard.
func LiveGuards(body *mir.Body, g *cfg.Graph, origins map[mir.LocalID]Guard) *dataflow.Result {
	prob := &dataflow.Problem{
		Bits: len(body.Locals),
		Join: dataflow.JoinUnion,
		TransferStmt: func(state dataflow.BitSet, _ mir.BlockID, _ int, st mir.Statement) {
			switch st := st.(type) {
			case mir.StorageDead:
				state.Clear(int(st.Local))
			case mir.Assign:
				// Guards moved into an aggregate (a struct literal or a
				// closure environment) leave their source locals: ownership
				// transfers into the aggregate value, so the source no
				// longer releases on scope end.
				if agg, ok := st.Rvalue.(mir.Aggregate); ok {
					for _, op := range agg.Ops {
						if pl, ok := mir.OperandPlace(op); ok && pl.IsLocal() && mir.IsMove(op) {
							if _, isGuard := origins[pl.Local]; isGuard {
								state.Clear(int(pl.Local))
							}
						}
					}
				}
				if !st.Place.IsLocal() {
					// A guard moved into a non-local place (a struct
					// field, a slot behind a pointer) leaves the source
					// local: clear it so a later reacquisition is not a
					// false positive. The destination's storage is not a
					// tracked local, so ownership conservatively escapes.
					if use, ok := st.Rvalue.(mir.Use); ok {
						if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
							if _, isGuard := origins[pl.Local]; isGuard {
								state.Clear(int(pl.Local))
							}
						}
					}
					return
				}
				if use, ok := st.Rvalue.(mir.Use); ok {
					if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
						if _, isGuard := origins[pl.Local]; isGuard && state.Has(int(pl.Local)) {
							// The guard moves: source releases, dest holds.
							state.Clear(int(pl.Local))
							state.Set(int(st.Place.Local))
							return
						}
					}
				}
				// Overwriting a guard-holding local drops the old guard.
				state.Clear(int(st.Place.Local))
			}
		},
		TransferTerm: func(state dataflow.BitSet, _ mir.BlockID, term mir.Terminator) {
			switch term := term.(type) {
			case mir.Drop:
				if term.Place.IsLocal() {
					state.Clear(int(term.Place.Local))
				}
			case mir.Call:
				if _, isAcq := Acquire(term.Intrinsic); isAcq && term.Dest.IsLocal() {
					if _, tracked := origins[term.Dest.Local]; tracked {
						state.Set(int(term.Dest.Local))
					}
					return
				}
				switch term.Intrinsic {
				case mir.IntrinsicUnwrap, mir.IntrinsicTryLock:
					if len(term.Args) > 0 {
						if pl, ok := mir.OperandPlace(term.Args[0]); ok && pl.IsLocal() {
							if _, isGuard := origins[pl.Local]; isGuard && state.Has(int(pl.Local)) {
								state.Clear(int(pl.Local))
								if term.Dest.IsLocal() {
									state.Set(int(term.Dest.Local))
								}
								return
							}
						}
					}
					// try_lock acquires directly from the lock receiver.
					if term.Intrinsic == mir.IntrinsicTryLock && term.Dest.IsLocal() {
						if _, tracked := origins[term.Dest.Local]; tracked {
							state.Set(int(term.Dest.Local))
						}
					}
				case mir.IntrinsicCondvarWait:
					// wait(cv, guard) releases during the wait and returns
					// a reacquired guard: transfer, never double-lock.
					if len(term.Args) > 1 {
						if pl, ok := mir.OperandPlace(term.Args[1]); ok && pl.IsLocal() {
							state.Clear(int(pl.Local))
						}
					}
					if term.Dest.IsLocal() {
						if _, tracked := origins[term.Dest.Local]; tracked {
							state.Set(int(term.Dest.Local))
						}
					}
				case mir.IntrinsicForget:
					if len(term.Args) > 0 {
						if pl, ok := mir.OperandPlace(term.Args[0]); ok && pl.IsLocal() {
							state.Clear(int(pl.Local))
						}
					}
				default:
					// A guard moved into a call is consumed there.
					for _, a := range term.Args {
						if pl, ok := mir.OperandPlace(a); ok && pl.IsLocal() && mir.IsMove(a) {
							if _, isGuard := origins[pl.Local]; isGuard {
								state.Clear(int(pl.Local))
							}
						}
					}
					if term.Dest.IsLocal() {
						state.Clear(int(term.Dest.Local))
					}
				}
			}
		},
	}
	return dataflow.Forward(g, prob)
}

// Held returns the lock identities live at a program point.
func Held(state dataflow.BitSet, origins map[mir.LocalID]Guard) map[string]Mode {
	held := map[string]Mode{}
	state.ForEach(func(l int) {
		if gi, ok := origins[mir.LocalID(l)]; ok {
			// Writes dominate in the merged view.
			if cur, exists := held[gi.Lock]; !exists || gi.Mode > cur {
				held[gi.Lock] = gi.Mode
			}
		}
	})
	return held
}

// CloneLocks copies a lockset.
func CloneLocks(locks map[string]Mode) map[string]Mode {
	out := make(map[string]Mode, len(locks))
	for id, m := range locks {
		out[id] = m
	}
	return out
}

// TranslateLocks rewrites a callee's lockset into a caller's namespace
// through the call site's argument paths; locks rooted in anything but a
// parameter (or a static) are dropped.
func TranslateLocks(locks map[string]Mode, params, argPaths []string) map[string]Mode {
	out := map[string]Mode{}
	for id, m := range locks {
		if t := summary.TranslateRoot(id, params, argPaths); t != "" {
			out[t] = m
		}
	}
	return out
}

// LocksString renders a lockset deterministically for finding notes.
func LocksString(locks map[string]Mode) string {
	if len(locks) == 0 {
		return "no locks"
	}
	ids := make([]string, 0, len(locks))
	for id := range locks {
		ids = append(ids, fmt.Sprintf("%s(%s)", id, locks[id]))
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}
