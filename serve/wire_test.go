package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"skybench"
)

// TestErrorTable drives the sentinel → (status, code) mapping with every
// row, both bare and wrapped the way real call sites produce them, and
// checks the code → sentinel inverse so client-side errors.Is agrees
// with the server.
func TestErrorTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{skybench.ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
		{skybench.ErrDeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{skybench.ErrUnknownCollection, http.StatusNotFound, "unknown_collection"},
		{ErrUnknownPoint, http.StatusNotFound, "unknown_point"},
		{skybench.ErrDuplicateCollection, http.StatusConflict, "duplicate_collection"},
		{skybench.ErrBadQuery, http.StatusBadRequest, "bad_query"},
		{skybench.ErrBadPoint, http.StatusBadRequest, "bad_point"},
		{skybench.ErrBadDataset, http.StatusBadRequest, "bad_dataset"},
		{skybench.ErrUnknownAlgorithm, http.StatusBadRequest, "unknown_algorithm"},
		{skybench.ErrQueryPanic, http.StatusInternalServerError, "query_panic"},
		{skybench.ErrClosed, http.StatusServiceUnavailable, "closed"},
		{skybench.ErrCorruptWAL, http.StatusInternalServerError, "corrupt_wal"},
		{skybench.ErrCanceled, statusCanceled, "canceled"},
	}
	for _, c := range cases {
		t.Run(c.code, func(t *testing.T) {
			for _, err := range []error{c.err, fmt.Errorf("wrapped: %w", c.err)} {
				status, code := statusForError(err)
				if status != c.status || code != c.code {
					t.Errorf("statusForError(%v) = (%d, %q), want (%d, %q)", err, status, code, c.status, c.code)
				}
			}
			sentinel := SentinelForCode(c.code)
			if !errors.Is(c.err, sentinel) {
				t.Errorf("SentinelForCode(%q) = %v, does not match %v", c.code, sentinel, c.err)
			}
		})
	}

	// A deadline error wraps ErrCanceled too — the table must still say
	// 504, not 499 (row order).
	both := fmt.Errorf("op: %w", skybench.ErrDeadlineExceeded)
	if status, code := statusForError(both); status != http.StatusGatewayTimeout || code != "deadline_exceeded" {
		t.Errorf("deadline error mapped to (%d, %q), want (504, deadline_exceeded)", status, code)
	}
	if status, code := statusForError(errors.New("novel")); status != http.StatusInternalServerError || code != "internal" {
		t.Errorf("untyped error mapped to (%d, %q), want (500, internal)", status, code)
	}
	if SentinelForCode("internal") != nil || SentinelForCode("nope") != nil {
		t.Error("unknown codes must map to a nil sentinel")
	}
}

// TestQueryFingerprint: identical result-determining fields fingerprint
// identically (including delivery-option differences), different ones
// differently.
func TestQueryFingerprint(t *testing.T) {
	a := &QueryRequest{Algorithm: "hybrid", Prefs: []string{"min", "max"}, SkybandK: 2}
	b := &QueryRequest{Algorithm: "HYBRID", Prefs: []string{"min", "max"}, SkybandK: 2, OmitValues: true, AllowStale: true}
	if queryFingerprint(a) != queryFingerprint(b) {
		t.Error("fingerprints differ on delivery options / case only")
	}
	c := &QueryRequest{Algorithm: "hybrid", Prefs: []string{"min", "max"}, SkybandK: 3}
	if queryFingerprint(a) == queryFingerprint(c) {
		t.Error("fingerprints collide across different SkybandK")
	}
	if got := queryFingerprint(&QueryRequest{}); len(got) != 16 {
		t.Errorf("fingerprint %q, want 16 hex chars", got)
	}
}

// TestToQuery covers the wire → Query conversion edges the error table
// test doesn't reach through HTTP.
func TestToQuery(t *testing.T) {
	q, err := toQuery(&QueryRequest{Prefs: []string{"min", "MAX", "ignore"}, SkybandK: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []skybench.Pref{skybench.Min, skybench.Max, skybench.Ignore}
	for i, p := range want {
		if q.Prefs[i] != p {
			t.Fatalf("prefs = %v, want %v", q.Prefs, want)
		}
	}
	if q.SkybandK != 2 {
		t.Fatalf("SkybandK = %d, want 2", q.SkybandK)
	}
	for _, bad := range []*QueryRequest{
		{Prefs: []string{"sideways"}},
		{SkybandK: -1},
		{Algorithm: "no-such-algorithm"},
		{Pivot: "no-such-pivot"},
	} {
		if _, err := toQuery(bad); err == nil {
			t.Errorf("toQuery(%+v) accepted", bad)
		} else if status, _ := statusForError(err); status != http.StatusBadRequest {
			t.Errorf("toQuery(%+v) error %v maps to %d, want 400", bad, err, status)
		}
	}
}
