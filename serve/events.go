// Per-request event logging, following the SABRE idiom: a standard,
// line-oriented event log every run emits in the same shape, so
// downstream tooling (plotting, comparison, and — the design target —
// the cmd/loadbench replay harness of ROADMAP item 5) consumes one
// format regardless of which server produced it.
package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"skybench"
)

// event is one served request in the NDJSON event log (skyserved
// -log-events): exactly one JSON object per line, in completion order.
// This is the input format a workload-replay harness consumes: TS and
// LatencyNs reconstruct the arrival process, Collection + Endpoint +
// Fingerprint identify the request class, and Status/Code/CacheHit give
// the per-class outcome rates to compare against.
type event struct {
	// TS is the request completion time, RFC 3339 with nanoseconds.
	TS string `json:"ts"`
	// Collection is the target collection ("" for store-wide endpoints
	// like the listing).
	Collection string `json:"collection,omitempty"`
	// Endpoint is the request class: "query", "insert", "delete",
	// "deltas", "attach", "drop", "info", "list".
	Endpoint string `json:"endpoint"`
	// Fingerprint is the stable query fingerprint (queryFingerprint);
	// query events only.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Algorithm is the algorithm the query resolved to (after
	// defaulting); query events only.
	Algorithm string `json:"algorithm,omitempty"`
	// Status is the HTTP status served; Code the wire error code for
	// non-2xx outcomes.
	Status int    `json:"status"`
	Code   string `json:"code,omitempty"`
	// LatencyNs is the server-side service time in nanoseconds (for
	// delta subscriptions: the connection lifetime).
	LatencyNs int64 `json:"latencyNs"`
	// CacheHit marks a query answered from the collection's result
	// cache, as reported by the lookup that answered it
	// (skybench.QueryResult.CacheHit) — exact however requests overlap.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Trace is the full execution trace of a slow query — attached only
	// when the server runs with a slow-query threshold
	// (Options.SlowQuery) and the request took at least that long.
	Trace *skybench.QueryTrace `json:"trace,omitempty"`
}

// EventLog serializes events as NDJSON onto one writer, buffered.
// Safe for concurrent use; a nil *EventLog discards everything, so
// callers never branch. The buffer means a line is not on disk until
// Close — skyserved closes it after its graceful drain, so a SIGTERM never
// truncates the log mid-line.
type EventLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying writer, when it needs closing
	enc *json.Encoder
}

// NewEventLog creates an event log writing to w. If w is also an
// io.Closer, Close closes it after the final flush.
func NewEventLog(w io.Writer) *EventLog {
	bw := bufio.NewWriter(w)
	l := &EventLog{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// log appends one event (filling TS if unset). Encoding errors are
// dropped: the event log is observability, never worth failing a
// request over.
func (l *EventLog) log(ev event) {
	if l == nil {
		return
	}
	if ev.TS == "" {
		ev.TS = time.Now().UTC().Format(time.RFC3339Nano)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.enc.Encode(&ev)
}

// flush writes any buffered events through to the underlying writer.
// Nil-safe.
func (l *EventLog) flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

// Close flushes and, when the underlying writer is an io.Closer,
// closes it. Nil-safe and idempotent for the flush; the underlying
// Close's idempotence is the writer's business.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	err := l.flush()
	if l.c != nil {
		if cerr := l.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
