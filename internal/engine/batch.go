package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"
)

// BatchRequest is one repo-shaped unit of traffic: many named files
// analyzed independently in a single call. Each file becomes its own
// engine job with its own content-hash cache key, so an unchanged file
// in a re-pushed tree is a cache (or store) hit even when its siblings
// changed, and the whole set is additionally keyed as a unit so a fully
// unchanged tree costs one lookup instead of len(Files).
type BatchRequest struct {
	Files     map[string]string `json:"files"`
	Detectors []string          `json:"detectors,omitempty"`
	// Precise selects the path-sensitive detector variants for every file
	// in the set; like Detectors it is part of both the per-file and the
	// set-level cache keys.
	Precise bool `json:"precise,omitempty"`
}

// Batch error kinds, classifying per-file failures for clients deciding
// whether to retry.
const (
	BatchErrSource   = "source"   // syntax errors: deterministic, do not retry
	BatchErrRequest  = "request"  // invalid sub-request: deterministic
	BatchErrOverload = "overload" // queue full / shutting down: retry later
	BatchErrCanceled = "canceled" // the batch's context expired mid-set
	BatchErrInternal = "internal" // analysis panicked on this file
)

// BatchEntry is one file's isolated result: either findings or an
// error, never both. One unparseable (or panicking) file costs only its
// own entry — every other file in the set still gets its result.
type BatchEntry struct {
	Findings []Finding     `json:"findings,omitempty"`
	Unsafe   UnsafeSummary `json:"unsafe"`
	CacheHit bool          `json:"cache_hit"`
	StoreHit bool          `json:"store_hit,omitempty"`

	Error       string `json:"error,omitempty"`
	ErrorKind   string `json:"error_kind,omitempty"`
	Diagnostics string `json:"diagnostics,omitempty"`
}

func (e *BatchEntry) clone() *BatchEntry {
	out := *e
	out.Findings = cloneFindings(e.Findings)
	return &out
}

// BatchResponse maps each submitted file name to its isolated result.
type BatchResponse struct {
	Results map[string]*BatchEntry `json:"results"`
	Files   int                    `json:"files"`
	Errors  int                    `json:"errors"`
	// SetCacheHit marks the whole response as served from the set-level
	// cache: every per-file entry came back without any per-file work.
	SetCacheHit bool          `json:"set_cache_hit"`
	Elapsed     time.Duration `json:"-"`
}

func (r *BatchResponse) clone() *BatchResponse {
	out := *r
	out.Results = make(map[string]*BatchEntry, len(r.Results))
	for name, e := range r.Results {
		out.Results[name] = e.clone()
	}
	return &out
}

// setKey content-hashes the whole batch (files plus detector selection)
// under a distinct domain from single-file request keys.
func (r BatchRequest) setKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "batch\x00")
	names := make([]string, 0, len(r.Files))
	for n := range r.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src := r.Files[n]
		fmt.Fprintf(h, "file\x00%d\x00%s\x00%d\x00%s\x00", len(n), n, len(src), src)
	}
	ds := append([]string(nil), r.Detectors...)
	sort.Strings(ds)
	for _, d := range ds {
		fmt.Fprintf(h, "detector\x00%s\x00", d)
	}
	if r.Precise {
		fmt.Fprintf(h, "precise\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchEntryFor maps one sub-analysis outcome onto an isolated entry.
func batchEntryFor(resp *Response, err error) *BatchEntry {
	if err == nil {
		return &BatchEntry{
			Findings: resp.Findings,
			Unsafe:   resp.Unsafe,
			CacheHit: resp.CacheHit,
			StoreHit: resp.StoreHit,
		}
	}
	e := &BatchEntry{Error: err.Error()}
	var reqErr *RequestError
	var srcErr *SourceError
	var intErr *InternalError
	switch {
	case errors.As(err, &srcErr):
		e.ErrorKind = BatchErrSource
		e.Diagnostics = srcErr.Diags
	case errors.As(err, &reqErr):
		e.ErrorKind = BatchErrRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		e.ErrorKind = BatchErrOverload
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		e.ErrorKind = BatchErrCanceled
	case errors.As(err, &intErr):
		e.ErrorKind = BatchErrInternal
	default:
		e.ErrorKind = BatchErrInternal
	}
	return e
}

// retryableBatch reports whether any entry failed transiently (overload,
// cancellation, panic). A set containing such entries is not cached: the
// same submission later deserves a fresh attempt.
func retryableBatch(entries map[string]*BatchEntry) bool {
	for _, e := range entries {
		switch e.ErrorKind {
		case BatchErrOverload, BatchErrCanceled, BatchErrInternal:
			return true
		}
	}
	return false
}

// AnalyzeBatch analyzes every file in the request independently and
// returns one response with per-file findings and per-file error
// isolation. Each file rides the normal single-file path — content-hash
// LRU + persistent store lookup, singleflight dedup against identical
// concurrent submissions (including duplicates inside one fleet's
// burst), queue backpressure, and cancellation — so the semantics under
// load are exactly the engine's. The whole set is also keyed as a unit:
// resubmitting an unchanged tree is one cache lookup.
//
// The batch fails as a whole only for malformed requests (nil/empty
// Files, unknown detector) or when ctx dies; per-file problems are
// reported in their entries.
func (e *Engine) AnalyzeBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	if len(req.Files) == 0 {
		return nil, &RequestError{"empty batch: provide files"}
	}
	// Detector names gate the whole batch: a typo should be a 400, not
	// len(Files) identical per-file errors.
	if err := validate(Request{Files: map[string]string{"probe.rs": ""}, Detectors: req.Detectors}); err != nil {
		return nil, err
	}
	e.ctr.batchSubmitted.Add(1)

	key := req.setKey()
	if e.batchCache != nil {
		if cached, ok := e.batchCache.get(key); ok {
			e.ctr.batchSetHits.Add(1)
			cached.SetCacheHit = true
			cached.Elapsed = time.Since(start)
			return cached, nil
		}
	}

	names := make([]string, 0, len(req.Files))
	for n := range req.Files {
		names = append(names, n)
	}
	sort.Strings(names)

	// Fan out with bounded concurrency: enough to fill the pool, never
	// so much that one huge batch floods the queue past the backpressure
	// limit for everyone else.
	maxConc := e.cfg.Workers
	if maxConc > len(names) {
		maxConc = len(names)
	}
	if maxConc < 1 {
		maxConc = 1
	}
	sem := make(chan struct{}, maxConc)
	entries := make([]*BatchEntry, len(names))
	done := make(chan int, len(names))
	for i, name := range names {
		sem <- struct{}{}
		go func(i int, name string) {
			defer func() { <-sem; done <- i }()
			resp, err := e.Analyze(ctx, Request{
				Files:     map[string]string{name: req.Files[name]},
				Detectors: req.Detectors,
				Precise:   req.Precise,
			})
			entries[i] = batchEntryFor(resp, err)
		}(i, name)
	}
	for range names {
		<-done
	}
	if err := ctx.Err(); err != nil {
		// The whole batch's budget expired; a partial map would be
		// mistaken for a complete answer.
		return nil, err
	}

	resp := &BatchResponse{Results: make(map[string]*BatchEntry, len(names)), Files: len(names)}
	for i, name := range names {
		resp.Results[name] = entries[i]
		if entries[i].Error != "" {
			resp.Errors++
		}
	}
	e.ctr.batchFiles.Add(uint64(len(names)))
	e.ctr.batchFileErrors.Add(uint64(resp.Errors))
	if e.batchCache != nil && !retryableBatch(resp.Results) {
		e.batchCache.put(key, resp)
	}
	out := resp.clone()
	out.Elapsed = time.Since(start)
	return out, nil
}
