// Package visualize implements the IDE-tool direction the paper proposes
// (§7, Suggestions 6 and 7): given a function's MIR, it renders the source
// with per-line annotations of lifetime events — where lock guards are
// acquired and implicitly released (the critical-section boundary Rust
// never writes down), where owned values are dropped, and where storage
// ends. Misjudging exactly these invisible points causes most of the
// paper's §6.1 blocking bugs.
package visualize

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/detect/lockset"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// EventKind classifies a lifetime event.
type EventKind int

// Event kinds.
const (
	EventAcquire    EventKind = iota // lock()/read()/write() acquires
	EventRelease                     // guard drop: the implicit unlock
	EventDrop                        // owned value dropped (heap freed)
	EventStorageEnd                  // stack storage ends
)

func (k EventKind) String() string {
	switch k {
	case EventAcquire:
		return "ACQUIRE"
	case EventRelease:
		return "RELEASE"
	case EventDrop:
		return "DROP"
	default:
		return "STORAGE-END"
	}
}

// Event is one annotated lifetime event.
type Event struct {
	Kind   EventKind
	Line   int // 1-based source line
	Detail string
}

// Annotate computes the lifetime events of a body against fset.
func Annotate(body *mir.Body, fset *source.FileSet) []Event {
	var events []Event
	lineOf := func(sp source.Span) int {
		pos := fset.Position(sp.Start)
		return pos.Line
	}
	// Scope-exit events (drops, storage ends) carry the span of the whole
	// scope they close; the *end* of that span is where the event happens.
	endLineOf := func(sp source.Span) int {
		pos := fset.Position(sp.End)
		return pos.Line
	}

	// Guard-holding locals and their lock identity, as the lock detectors
	// see them.
	guards := lockset.Guards(body)

	describe := func(l mir.LocalID) string {
		loc := body.Local(l)
		if loc.Name != "" {
			return loc.Name
		}
		return fmt.Sprintf("temporary %s", loc)
	}

	seen := map[string]bool{}
	add := func(e Event) {
		key := fmt.Sprintf("%d/%d/%s", e.Kind, e.Line, e.Detail)
		if !seen[key] {
			seen[key] = true
			events = append(events, e)
		}
	}

	for _, blk := range body.Blocks {
		for _, st := range blk.Stmts {
			if sd, ok := st.(mir.StorageDead); ok {
				l := body.Local(sd.Local)
				if l.Name == "" || strings.HasPrefix(l.Name, "static ") {
					continue // temps end constantly; only named locals are shown
				}
				add(Event{Kind: EventStorageEnd, Line: endLineOf(sd.Span), Detail: l.Name})
			}
		}
		switch term := blk.Term.(type) {
		case mir.Call:
			switch term.Intrinsic {
			case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
				mode := map[mir.Intrinsic]string{
					mir.IntrinsicLock: "lock", mir.IntrinsicRead: "read", mir.IntrinsicWrite: "write",
				}[term.Intrinsic]
				add(Event{Kind: EventAcquire, Line: lineOf(term.Span),
					Detail: fmt.Sprintf("%s(%s)", mode, term.RecvPath)})
			}
		case mir.Drop:
			if !term.Place.IsLocal() {
				continue
			}
			l := term.Place.Local
			if g, isGuard := guards[l]; isGuard {
				add(Event{Kind: EventRelease, Line: endLineOf(term.Span),
					Detail: fmt.Sprintf("implicit unlock of %s (guard %s)", g.Lock, describe(l))})
				continue
			}
			if types.IsOwningContainer(body.Local(l).Ty) || body.Local(l).Name != "" {
				add(Event{Kind: EventDrop, Line: endLineOf(term.Span),
					Detail: fmt.Sprintf("%s (%s)", describe(l), body.Local(l).Ty)})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Line != events[j].Line {
			return events[i].Line < events[j].Line
		}
		return events[i].Kind < events[j].Kind
	})
	return events
}

// Render prints the function's source with event annotations interleaved,
// one `// ^` comment line per event after the source line it refers to.
func Render(body *mir.Body, fset *source.FileSet) string {
	events := Annotate(body, fset)
	f := fset.FileFor(body.Span.Start)
	if f == nil {
		return ""
	}
	startLine := fset.Position(body.Span.Start).Line
	endLine := fset.Position(body.Span.End).Line

	byLine := map[int][]Event{}
	for _, e := range events {
		byLine[e.Line] = append(byLine[e.Line], e)
	}

	var b strings.Builder
	name := "?"
	if body.Func != nil {
		name = body.Func.Qualified
	}
	fmt.Fprintf(&b, "lifetime events in %s:\n", name)
	for line := startLine; line <= endLine; line++ {
		text := f.Line(line)
		fmt.Fprintf(&b, "%4d | %s\n", line, text)
		for _, e := range byLine[line] {
			fmt.Fprintf(&b, "     | %s>> %s: %s\n", strings.Repeat(" ", indentOf(text)), e.Kind, e.Detail)
		}
	}
	return b.String()
}

func indentOf(line string) int {
	n := 0
	for n < len(line) && (line[n] == ' ' || line[n] == '\t') {
		n++
	}
	return n
}

// CriticalSections summarizes, per lock, the line ranges where it is held
// (first acquire to last release seen in source order) — the visualization
// Suggestion 6 asks IDEs to surface.
func CriticalSections(body *mir.Body, fset *source.FileSet) map[string][2]int {
	events := Annotate(body, fset)
	out := map[string][2]int{}
	for _, e := range events {
		switch e.Kind {
		case EventAcquire:
			id := strings.TrimSuffix(strings.SplitN(e.Detail, "(", 2)[1], ")")
			if cur, ok := out[id]; !ok {
				out[id] = [2]int{e.Line, e.Line}
			} else if e.Line < cur[0] {
				cur[0] = e.Line
				out[id] = cur
			}
		case EventRelease:
			// Detail: "implicit unlock of ID (guard ...)"
			rest := strings.TrimPrefix(e.Detail, "implicit unlock of ")
			id := strings.SplitN(rest, " ", 2)[0]
			cur, ok := out[id]
			if !ok {
				continue
			}
			if e.Line > cur[1] {
				cur[1] = e.Line
				out[id] = cur
			}
		}
	}
	return out
}
