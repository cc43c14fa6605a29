package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"skybench"
)

// TestLiveEpochAdvances checks the live-set membership epoch: every
// insert and successful delete advances it — including mutations the
// band-membership (Snapshot) epoch never sees.
func TestLiveEpochAdvances(t *testing.T) {
	ix, err := New(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.LiveEpoch() != 0 {
		t.Fatalf("fresh index LiveEpoch = %d, want 0", ix.LiveEpoch())
	}
	if _, err := ix.Insert([]float64{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	e1 := ix.LiveEpoch()
	if e1 == 0 {
		t.Fatal("insert did not advance LiveEpoch")
	}
	bandEpoch := ix.Snapshot().epoch

	// A dominated insert changes the live set but not the band.
	id, err := ix.Insert([]float64{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if ix.LiveEpoch() <= e1 {
		t.Fatal("dominated insert did not advance LiveEpoch")
	}
	if got := ix.Snapshot().epoch; got != bandEpoch {
		t.Fatalf("dominated insert advanced the band epoch %d -> %d", bandEpoch, got)
	}
	e2 := ix.LiveEpoch()

	// Deleting a non-band point likewise.
	if !ix.Delete(id) {
		t.Fatal("delete failed")
	}
	if ix.LiveEpoch() <= e2 {
		t.Fatal("dominated-point delete did not advance LiveEpoch")
	}
	e3 := ix.LiveEpoch()
	// A failed delete must not.
	if ix.Delete(id) {
		t.Fatal("double delete succeeded")
	}
	if ix.LiveEpoch() != e3 {
		t.Fatal("failed delete advanced LiveEpoch")
	}
}

// TestLiveSnapshotContents checks that LiveSnapshot returns every live
// point (band member or not) with its original coordinates and ID,
// deterministically for an unchanged epoch, under non-identity prefs.
func TestLiveSnapshotContents(t *testing.T) {
	ix, err := New(3, Config{Prefs: []skybench.Pref{skybench.Min, skybench.Max, skybench.Ignore}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(5))
	want := make(map[ID][]float64)
	for i := 0; i < 200; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = p
	}
	for id := range want {
		if len(want) <= 150 {
			break
		}
		if !ix.Delete(id) {
			t.Fatalf("delete of %d failed", id)
		}
		delete(want, id)
	}

	vals, ids, epoch := ix.LiveSnapshot()
	if epoch != ix.LiveEpoch() {
		t.Fatalf("snapshot epoch %d, LiveEpoch %d", epoch, ix.LiveEpoch())
	}
	if len(ids) != len(want) || len(vals) != len(want)*3 {
		t.Fatalf("snapshot has %d ids / %d vals, want %d live points", len(ids), len(vals), len(want))
	}
	for i, id := range ids {
		p, ok := want[ID(id)]
		if !ok {
			t.Fatalf("snapshot row %d has unknown id %d", i, id)
		}
		if fmt.Sprint(vals[i*3:(i+1)*3]) != fmt.Sprint(p) {
			t.Fatalf("id %d: snapshot row %v, want original %v", id, vals[i*3:(i+1)*3], p)
		}
	}

	// Determinism at an unchanged epoch.
	vals2, ids2, epoch2 := ix.LiveSnapshot()
	if epoch2 != epoch || fmt.Sprint(ids2) != fmt.Sprint(ids) || fmt.Sprint(vals2) != fmt.Sprint(vals) {
		t.Fatal("repeated LiveSnapshot at an unchanged epoch differs")
	}
}

// TestLiveBandContents checks LiveBand against the two readings it sits
// between: it is Snapshot's rows and counts (under the index's own
// preferences and k), addressed by their positions in LiveSnapshot's row
// order, in ascending position, labelled with the live epoch and count.
func TestLiveBandContents(t *testing.T) {
	// With preferences the rows are gathered from the original
	// coordinates; without, from the core's band mirror.
	for _, prefs := range [][]skybench.Pref{{skybench.Min, skybench.Max, skybench.Ignore}, nil} {
		t.Run(fmt.Sprint(prefs), func(t *testing.T) {
			ix, err := New(3, Config{Prefs: prefs, SkybandK: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			rng := rand.New(rand.NewSource(9))
			var ids []ID
			for i := 0; i < 300; i++ {
				id, err := ix.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids[:120:120] { // leave free slots below live ones
				if rng.Intn(2) == 0 && !ix.Delete(id) {
					t.Fatalf("delete of %d failed", id)
				}
			}

			lb := ix.LiveBand()
			vals, live, epoch := ix.LiveSnapshot()
			snap := ix.Snapshot()
			if lb.K != 3 || fmt.Sprint(lb.Prefs) != fmt.Sprint(prefs) || lb.Live != len(live) || lb.Epoch != epoch || lb.Epoch != ix.LiveEpoch() {
				t.Fatalf("LiveBand header: k %d prefs %v live %d epoch %d; want 3 %v %d %d", lb.K, lb.Prefs, lb.Live, lb.Epoch, prefs, len(live), epoch)
			}
			if len(lb.Pos) != snap.Len() || len(lb.IDs) != snap.Len() || len(lb.Counts) != snap.Len() || len(lb.Vals) != 3*snap.Len() {
				t.Fatalf("LiveBand has %d/%d/%d/%d entries, Snapshot %d rows", len(lb.Pos), len(lb.IDs), len(lb.Counts), len(lb.Vals), snap.Len())
			}
			counts := make(map[ID]int, snap.Len())
			rows := make(map[ID]string, snap.Len())
			for i := 0; i < snap.Len(); i++ {
				counts[snap.ID(i)] = snap.Count(i)
				rows[snap.ID(i)] = fmt.Sprint(snap.Row(i))
			}
			for i, p := range lb.Pos {
				if i > 0 && p <= lb.Pos[i-1] {
					t.Fatalf("positions not ascending at %d: %v", i, lb.Pos[i-1:i+1])
				}
				if live[p] != lb.IDs[i] || fmt.Sprint(vals[p*3:(p+1)*3]) != fmt.Sprint(lb.Vals[i*3:(i+1)*3]) {
					t.Fatalf("band row %d: id %d values %v, LiveSnapshot row %d is id %d values %v",
						i, lb.IDs[i], lb.Vals[i*3:(i+1)*3], p, live[p], vals[p*3:(p+1)*3])
				}
				if c, ok := counts[ID(lb.IDs[i])]; !ok || c != int(lb.Counts[i]) {
					t.Fatalf("band row %d (id %d): count %d, Snapshot (%d, %v)", i, lb.IDs[i], lb.Counts[i], c, ok)
				}
				if r := rows[ID(lb.IDs[i])]; r != fmt.Sprint(vals[p*3:(p+1)*3]) {
					t.Fatalf("band row %d (id %d): Snapshot values %s, LiveSnapshot %v", i, lb.IDs[i], r, vals[p*3:(p+1)*3])
				}
			}
		})
	}

	// A skyline index carries no counts; an empty one an empty band.
	sky, err := New(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sky.Close()
	if lb := sky.LiveBand(); lb.K != 1 || lb.Prefs != nil || lb.Live != 0 || len(lb.Pos) != 0 || lb.Counts != nil {
		t.Fatalf("empty skyline index: %+v", lb)
	}
}
