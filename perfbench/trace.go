package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch; Parent is the index of the enclosing span, -1 for a
// root. Spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// recorder keeps spans in memory; they are written out once, at exit.
// It is used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// startOp tags the spans that follow with op id.
func (r *recorder) startOp(id int) { r.op = int32(id) }

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// duration is the wall time of span id.
func (r *recorder) duration(id int32) time.Duration {
	s := r.spans[id]
	return time.Duration(s.End - s.Start)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// or stick out of the parent; only the union inside the parent counts.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		covered := int64(0)
		if kids := children[int32(i)]; len(kids) > 0 {
			iv := make([][2]int64, 0, len(kids))
			for _, k := range kids {
				lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
				if lo < hi {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			curLo, curHi := int64(0), int64(-1)
			for _, v := range iv {
				if v[0] > curHi {
					if curHi > curLo {
						covered += curHi - curLo
					}
					curLo, curHi = v[0], v[1]
				} else if v[1] > curHi {
					curHi = v[1]
				}
			}
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
