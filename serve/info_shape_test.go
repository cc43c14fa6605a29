package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skybench"
	"skybench/serve"
)

// updateInfoGolden rewrites serve/testdata/info_*.json from the running
// code. The committed files were recorded at the commit before the wire
// mirror types were deleted (62d1492), so the test below holds the
// canonical stats types' JSON tags to the shape the mirrors had.
var updateInfoGolden = flag.Bool("update-info-golden", false, "rewrite serve/testdata/info_*.json")

// jsonShape renders a JSON document as its keys, in document order, with
// every scalar replaced by its kind — the part of an info body that does
// not change from run to run. Array elements are all rendered, so an
// omitempty field present on one worker and absent on the next shows.
func jsonShape(t *testing.T, data []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var b strings.Builder
	var walk func(depth int)
	walk = func(depth int) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("shape: %v", err)
		}
		pad := strings.Repeat("  ", depth)
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				b.WriteString("{\n")
				for dec.More() {
					key, _ := dec.Token()
					fmt.Fprintf(&b, "%s  %q: ", pad, key)
					walk(depth + 1)
				}
				dec.Token() // '}'
				b.WriteString(pad + "}\n")
				return
			}
			b.WriteString("[\n")
			for dec.More() {
				b.WriteString(pad + "  ")
				walk(depth + 1)
			}
			dec.Token() // ']'
			b.WriteString(pad + "]\n")
		case json.Number:
			b.WriteString("number\n")
		case string:
			b.WriteString("string\n")
		case bool:
			b.WriteString("bool\n")
		case nil:
			b.WriteString("null\n")
		}
	}
	walk(0)
	return b.String()
}

// TestCollectionInfoShape: GET /v1/collections/{name} for a
// static, a durable-stream and a cluster collection has the
// keys, key order and value kinds it had before CollectionInfo embedded
// the canonical skybench stats types.
func TestCollectionInfoShape(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()

	if _, err := srv.AttachStaticFile("hotels", genCSV(t, 500, 3, 1), skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, req := range []*serve.QueryRequest{{}, {}, {SkybandK: 2}, {Algorithm: "auto"}, {Algorithm: "qflow"}} {
		if _, err := c.Query(ctx, "hotels", req); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := c.Attach(ctx, "ticks", &serve.AttachRequest{
		Stream: &serve.StreamSpec{Dir: filepath.Join(t.TempDir(), "wal"), Create: true, D: 2, Fsync: "always", CheckpointEvery: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "ticks", [][]float64{{1, 9}, {9, 1}, {5, 5}, {2, 2}}); err != nil {
		t.Fatal(err)
	}
	// The default query is answered from the index's maintained band
	// ("bandAnswers"); a max preference the index does not maintain is
	// materialized and run.
	for _, req := range []*serve.QueryRequest{nil, {Prefs: []string{"min", "max"}}} {
		if _, err := c.Query(ctx, "ticks", req); err != nil {
			t.Fatal(err)
		}
	}

	fake := &fakeRemote{n: 4, d: 2, epoch: 9}
	if _, err := srv.Store().AttachRemote("fleet", fake, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "fleet", nil); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"hotels", "ticks", "fleet"} {
		resp, err := http.Get(srvURL(c) + "/v1/collections/" + name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", name, resp.StatusCode, err)
		}
		golden := filepath.Join("testdata", "info_"+name+".json")
		if *updateInfoGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonShape(t, body), jsonShape(t, want); got != want {
			t.Errorf("%s: info shape changed\n--- recorded at the parent\n%s--- now\n%s", name, want, got)
		}
	}
}
