package serve

// Test-only access for package serve_test.

// QueryFingerprint is queryFingerprint, for matching event-log lines.
var QueryFingerprint = queryFingerprint

// Event is one event-log line, for decoding what EventLog wrote.
type Event = event

// Flush writes the log's buffered events through without closing it.
func (l *EventLog) Flush() error { return l.flush() }
