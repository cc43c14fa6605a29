package skybench_test

import (
	"context"
	"errors"
	"testing"

	"skybench"
	"skybench/stream"
)

// TestCollectionStatsStatic: Stats on a static collection reports shape,
// cache counters, and a zero epoch, in one coherent struct.
func TestCollectionStatsStatic(t *testing.T) {
	st := skybench.NewStore(2)
	defer st.Close()
	rows := storeTestData(t, "independent", 300, 3, 21)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	col, err := st.Attach("hotels", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := col.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "hotels" || s.N != 300 || s.D != 3 || s.StreamBacked || s.Epoch != 0 {
		t.Fatalf("static stats = %+v", s)
	}
	if s.Inflight != 0 {
		t.Fatalf("idle collection reports inflight %d", s.Inflight)
	}

	// Cache counters flow through: one miss, then one hit.
	ctx := context.Background()
	if _, err := col.Run(ctx, skybench.Query{}); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Run(ctx, skybench.Query{}); err != nil {
		t.Fatal(err)
	}
	s, err = col.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache.Hits != 1 || s.Cache.Misses != 1 || s.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", s.Cache)
	}
}

// TestCollectionStatsStream: a stream-backed collection's Stats tracks
// the live point count and epoch without forcing a materialization, and
// a dropped collection still describes itself while erroring.
func TestCollectionStatsStream(t *testing.T) {
	st := skybench.NewStore(2)
	defer st.Close()
	ix, err := stream.New(2, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := st.AttachStream("live", ix, skybench.CollectionOptions{CloseOnDrop: true})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ix.InsertBatch([][]float64{{1, 9}, {9, 1}, {5, 5}}); err != nil {
		t.Fatal(err)
	}
	s, err := col.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !s.StreamBacked || s.N != 3 || s.D != 2 {
		t.Fatalf("stream stats = %+v", s)
	}
	if s.Epoch != ix.LiveEpoch() {
		t.Fatalf("stats epoch %d, index live epoch %d", s.Epoch, ix.LiveEpoch())
	}

	if _, err := ix.Insert([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	s2, err := col.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s2.N != 4 || s2.Epoch <= s.Epoch {
		t.Fatalf("after insert: %+v (was epoch %d)", s2, s.Epoch)
	}

	if err := st.Drop("live"); err != nil {
		t.Fatal(err)
	}
	s3, err := col.Stats()
	if !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("Stats on dropped collection: err=%v, want ErrClosed", err)
	}
	if s3.Name != "live" {
		t.Fatalf("dropped Stats lost identity: %+v", s3)
	}
}

// TestStoreNamesSorted: Names must enumerate in ascending lexicographic
// order regardless of attach order.
func TestStoreNamesSorted(t *testing.T) {
	st := skybench.NewStore(1)
	defer st.Close()
	rows := storeTestData(t, "independent", 10, 2, 22)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		ds, err := skybench.NewDataset(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Attach(name, ds, skybench.CollectionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}
