package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one call into a layer, recorded from outside it. Spans of one
// logical query share req; parent is the span that caused this one, or
// -1. Counters are the public counters read at the span's end.
type span struct {
	id, parent, req int32
	name            string // layer.op
	start, end      int64  // ns since the tracer started
	ok              bool
	counters        map[string]float64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run takes the same code path.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32, ok bool) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.spans[id].ok = ok
}

// count attaches counter values to a span.
func (t *tracer) count(id int32, kv map[string]float64) {
	if t != nil {
		t.spans[id].counters = kv
	}
}

// dur is the duration of span id in nanoseconds.
func (t *tracer) dur(id int32) float64 { return float64(t.spans[id].end - t.spans[id].start) }

// write appends the spans to path as NDJSON, one object per span. Span
// ids are unique within one workload's lines.
func (t *tracer) write(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		err = enc.Encode(struct {
			Workload string             `json:"workload"`
			ID       int32              `json:"id"`
			Parent   int32              `json:"parent"`
			Req      int32              `json:"req"`
			Name     string             `json:"name"`
			StartNs  int64              `json:"start_ns"`
			EndNs    int64              `json:"end_ns"`
			OK       bool               `json:"ok"`
			Counters map[string]float64 `json:"counters,omitempty"`
		}{workload, s.id, s.parent, s.req, s.name, s.start, s.end, s.ok, s.counters})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
