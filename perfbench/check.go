package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rustprobe/internal/corpus"
	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/sessionpool"
)

// analyzeWire and pushWire are the daemon's response shapes for
// POST /v1/analyze and POST /v1/sessions/{repo}/push.
type analyzeWire struct {
	Findings  []engine.Finding     `json:"findings"`
	Unsafe    engine.UnsafeSummary `json:"unsafe"`
	CacheHit  bool                 `json:"cache_hit"`
	StoreHit  bool                 `json:"store_hit,omitempty"`
	ElapsedMS float64              `json:"elapsed_ms"`
}

type pushWire struct {
	Findings  []incrstate.Finding   `json:"findings"`
	Stats     sessionpool.PushStats `json:"stats"`
	ElapsedMS float64               `json:"elapsed_ms"`
}

// encodeWire encodes v as the daemon's writeJSON does.
func encodeWire(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func encodeAnalyze(buf *bytes.Buffer, r *engine.Response) error {
	return encodeWire(buf, analyzeWire{
		Findings:  r.Findings,
		Unsafe:    r.Unsafe,
		CacheHit:  r.CacheHit,
		StoreHit:  r.StoreHit,
		ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
	})
}

// strictFN is difftest's list of kinds whose injections the static suite
// must never miss; misses of the other kinds are known gaps.
var strictFN = map[gen.Kind]bool{
	gen.KindUseAfterFree: true,
	gen.KindDoubleLock:   true,
	gen.KindUninitRead:   true,
	gen.KindInvalidFree:  true,
	gen.KindDoubleFree:   true,
	gen.KindBlocking:     true,
}

// labelVerdict applies internal/difftest's label rule to the findings of
// one generated program. fail is non-empty for a wrong answer; gap marks
// a missed injection of a kind the suite is not required to find.
func labelVerdict(p *gen.Program, fs []engine.Finding, precise bool) (fail string, gap bool) {
	if p.Buggy {
		for _, f := range fs {
			if f.Kind == string(p.Kind) {
				return "", false
			}
		}
		if strictFN[p.Kind] {
			return fmt.Sprintf("false negative: injected %s not found [%s]", p.Kind, p), false
		}
		return "", true
	}
	if len(fs) > 0 && (precise || !p.FPProne) {
		return fmt.Sprintf("%d findings on a clean program [%s]", len(fs), p), false
	}
	return "", false
}

// uncoveredPatterns are the corpus pattern functions no detector flags:
// a buffer overflow and three atomicity violations, bug classes the
// paper studies but the static suite has no pass for. The large-class
// check requires every other pattern function to be flagged.
var uncoveredPatterns = map[string]bool{
	"rust/servo/buffer_overflow.rs\x00Frame::pixel_unchecked":      true,
	"rust/libs/lazy_init.rs\x00config_racy":                        true,
	"rust/tock/mmio_share.rs\x00UartRegisters::enable_tx_racy":     true,
	"rust/libs/nonblocking_patterns.rs\x00Counter::increment_racy": true,
}

// checkPatternRefs fails unless every corpus pattern function outside
// uncoveredPatterns carries at least one finding.
func checkPatternRefs(fs []engine.Finding) string {
	flagged := make(map[string]bool, len(fs))
	for _, f := range fs {
		flagged[f.File+"\x00"+f.Function] = true
	}
	for _, ref := range corpus.AllPatternRefs() {
		k := ref.Path + "\x00" + ref.Function
		if !flagged[k] && !uncoveredPatterns[k] {
			return fmt.Sprintf("pattern function %s in %s not flagged", ref.Function, ref.Path)
		}
	}
	return ""
}
