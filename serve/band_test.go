package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"skybench"
	"skybench/serve"
	"skybench/serve/metrics"
)

// TestBandAnswerServed: a stream collection's default query is served
// from the band its index maintains, and the server says so everywhere
// an operator can look — the trace carries band (as a "band" key on the
// wire, round-tripping both encodings exactly), the info body counts it
// under bandAnswers, and skyserved_band_answers reads
// the same in a lint-clean exposition. Band answers stay out of the
// per-algorithm histograms, as cache hits do. A shape the index does
// not maintain is computed, traced without the marker, and booked.
func TestBandAnswerServed(t *testing.T) {
	_, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	if _, err := c.Attach(ctx, "ticks", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2, SkybandK: 2}}); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Insert(ctx, "ticks", [][]float64{{1, 9}, {9, 1}, {5, 5}, {6, 6}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(ctx, "ticks", &serve.QueryRequest{SkybandK: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil || !tr.Band || tr.CacheHit || tr.DominanceTests != 0 || tr.InputSize != 5 || tr.Output != 4 || tr.Epoch != res.Epoch {
		t.Fatalf("trace %+v, want a band trace of 4 of 5 rows at epoch %d", tr, res.Epoch)
	}
	if !strings.Contains(tr.String(), " band=maintained") {
		t.Errorf("trace rendering does not mark the band answer:\n%s", tr)
	}
	// Live-row positions, stream IDs, rows and exact counts, as computed.
	if !reflect.DeepEqual(res.Indices, []int{0, 1, 2, 3}) || !reflect.DeepEqual(res.IDs, ids[:4]) ||
		!reflect.DeepEqual(res.Counts, []int32{0, 0, 0, 1}) || !reflect.DeepEqual(res.Values[3], []float64{6, 6}) {
		t.Fatalf("band answer rows: indices %v ids %v counts %v values %v", res.Indices, res.IDs, res.Counts, res.Values)
	}

	// The same traced miss as plain JSON carries the key; both encodings
	// decode to the same trace shape.
	if err := c.Delete(ctx, "ticks", ids[4]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srvURL(c)+"/v1/collections/ticks/query", "application/json", strings.NewReader(`{"skybandK":2,"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var viaJSON serve.QueryResponse
	if err := json.Unmarshal(body, &viaJSON); err != nil || !strings.Contains(string(body), `"band":true`) {
		t.Fatalf("JSON response (%v) carries no band key: %s", err, body)
	}
	if viaJSON.Trace == nil || !viaJSON.Trace.Band || viaJSON.Trace.InputSize != 4 {
		t.Fatalf("JSON trace %+v", viaJSON.Trace)
	}

	// Neither band answer was observed as an engine run.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"skyserved_query_dominance_tests_count", "skyserved_query_algorithm_seconds_count"} {
		if strings.Contains(text, family+`{collection="ticks"`) {
			t.Errorf("band answers booked into %s", family)
		}
	}

	// A computed answer: no marker, and one booked run.
	res, err = c.Query(ctx, "ticks", &serve.QueryRequest{Prefs: []string{"max", "min"}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Band || res.Trace.DominanceTests == 0 {
		t.Fatalf("computed answer's trace %+v", res.Trace)
	}
	if js, _ := json.Marshal(res.Trace); strings.Contains(string(js), `"band"`) {
		t.Errorf("computed answer's trace carries a band key: %s", js)
	}

	info, err := c.Info(ctx, "ticks")
	if err != nil {
		t.Fatal(err)
	}
	if info.BandAnswers != 2 {
		t.Errorf("info: bandAnswers %d, want 2", info.BandAnswers)
	}
	text, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `skyserved_band_answers{collection="ticks"} 2`) {
		t.Errorf("metrics missing skyserved_band_answers{collection=\"ticks\"} 2")
	}
	if !strings.Contains(text, `skyserved_query_dominance_tests_count{collection="ticks",algorithm="hybrid"} 1`) {
		t.Errorf("the computed answer is not the one run booked into skyserved_query_dominance_tests")
	}
	if err := metrics.Lint(strings.NewReader(text)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}
}
