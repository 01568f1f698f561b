package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval the benchmark spent inside a layer, recorded by the
// benchmark's own code around its call into that layer. Parent is the index
// of the enclosing span in the same recorder, or -1; ID names the burst or
// simulation cell the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int32  `json:"id"`
}

// spanRec collects one thread's spans in memory. A nil recorder records
// nothing, which is how the untraced run is the same code without spans.
type spanRec struct {
	t0    time.Time
	spans []span
}

// maxSpans bounds a recorder's memory; later spans are dropped, and the
// per-name aggregates are then over the recorded prefix.
const maxSpans = 1 << 20

func (r *spanRec) begin(name string, parent, id int32) int32 {
	if r == nil || len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, ID: id})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	count       int64
	total, self time.Duration
}

// aggregate reduces a recorder to per-name totals. A span's self time is its
// duration minus the part of its interval that its child spans cover.
func aggregate(spans []span) map[string]spanAgg {
	children := map[int32][]int32{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := map[string]spanAgg{}
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		a := out[s.Name]
		a.count++
		a.total += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = a
	}
	return out
}

func mergeAggs(recs []*spanRec) map[string]spanAgg {
	out := map[string]spanAgg{}
	for _, r := range recs {
		for name, a := range aggregate(r.spans) {
			b := out[name]
			b.count += a.count
			b.total += a.total
			b.self += a.self
			out[name] = b
		}
	}
	return out
}

// writeSpans dumps the recorders as JSON lines, one span per line with its
// thread.
func writeSpans(path string, recs []*spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for t, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Thread int `json:"thread"`
				span
			}{t, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
