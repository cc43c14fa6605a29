package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/point"
)

func TestCompressBasics(t *testing.T) {
	work := point.FromRows([][]float64{
		{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4},
	})
	wl1 := []float64{0, 2, 4, 6, 8}
	worig := []int{10, 11, 12, 13, 14}
	wmask := []point.Mask{0, 1, 2, 3, 0}
	wcode := []uint64{20, 21, 22, 23, 24}
	flags := []uint32{0, 1, 0, 1, 0} // drop rows 1 and 3

	n := compress(work, wl1, worig, wmask, wcode, nil, 0, 5, flags)
	if n != 3 {
		t.Fatalf("survivors = %d, want 3", n)
	}
	wantOrig := []int{10, 12, 14}
	wantMask := []point.Mask{0, 2, 0}
	for i := 0; i < n; i++ {
		if worig[i] != wantOrig[i] || wmask[i] != wantMask[i] || wcode[i] != uint64(wantOrig[i]+10) {
			t.Fatalf("pos %d: orig=%d mask=%d code=%d", i, worig[i], wmask[i], wcode[i])
		}
		if work.Row(i)[0] != float64(wantOrig[i]-10) {
			t.Fatalf("pos %d: row=%v", i, work.Row(i))
		}
		if flags[i] != 0 {
			t.Fatalf("pos %d: stale flag", i)
		}
	}
}

func TestCompressAllSurviveAndAllPruned(t *testing.T) {
	work := point.FromRows([][]float64{{1}, {2}, {3}})
	wl1 := []float64{1, 2, 3}
	worig := []int{0, 1, 2}
	none := []uint32{0, 0, 0}
	if n := compress(work, wl1, worig, make([]point.Mask, 3), make([]uint64, 3), nil, 0, 3, none); n != 3 {
		t.Fatalf("all-survive: %d", n)
	}
	all := []uint32{1, 1, 1}
	if n := compress(work, wl1, worig, make([]point.Mask, 3), make([]uint64, 3), nil, 0, 3, all); n != 0 {
		t.Fatalf("all-pruned: %d", n)
	}
}

func TestCompressWithOffset(t *testing.T) {
	// The block starts mid-array; earlier rows must be untouched.
	work := point.FromRows([][]float64{{9}, {8}, {1}, {2}, {3}})
	wl1 := []float64{9, 8, 1, 2, 3}
	worig := []int{0, 1, 2, 3, 4}
	flags := []uint32{1, 0, 0} // block rows 2..4; drop block-local 0
	n := compress(work, wl1, worig, make([]point.Mask, 5), make([]uint64, 5), nil, 2, 3, flags)
	if n != 2 {
		t.Fatalf("survivors = %d", n)
	}
	if work.Row(0)[0] != 9 || work.Row(1)[0] != 8 {
		t.Fatal("rows before the block were touched")
	}
	if work.Row(2)[0] != 2 || work.Row(3)[0] != 3 {
		t.Fatalf("block not compressed: %v %v", work.Row(2), work.Row(3))
	}
}

// Compression must preserve relative order — the sort-order invariants
// of Phase II depend on it.
func TestCompressPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		work := point.NewMatrix(n, 1)
		wl1 := make([]float64, n)
		worig := make([]int, n)
		flags := make([]uint32, n)
		for i := 0; i < n; i++ {
			work.Row(i)[0] = float64(i)
			wl1[i] = float64(i)
			worig[i] = i
			if rng.Intn(2) == 0 {
				flags[i] = 1
			}
		}
		surv := compress(work, wl1, worig, make([]point.Mask, n), make([]uint64, n), nil, 0, n, flags)
		for i := 1; i < surv; i++ {
			if worig[i] <= worig[i-1] {
				t.Fatalf("order violated at %d: %v", i, worig[:surv])
			}
		}
	}
}

// walkStarts is the row-by-row walk partitionStarts replaces: Phase II's
// loop 1 advanced while a peer's level was below me's, loop 2 while its
// mask differed from me's. It returns where each walk stopped.
func walkStarts(masks []point.Mask, me int) (levelAt, partAt int) {
	i := 0
	for ; i < me && masks[i].Level() < masks[me].Level(); i++ {
	}
	levelAt = i
	for ; i < me && masks[i] != masks[me]; i++ {
	}
	return levelAt, i
}

// checkStarts holds partitionStarts to walkStarts on every row of masks.
func checkStarts(t *testing.T, label string, masks []point.Mask) {
	t.Helper()
	levelAt, partAt := make([]int32, len(masks)), make([]int32, len(masks))
	partitionStarts(masks, levelAt, partAt)
	for me := range masks {
		wl, wp := walkStarts(masks, me)
		if int(levelAt[me]) != wl || int(partAt[me]) != wp {
			t.Fatalf("%s: row %d (mask %b): columns (%d, %d), walk (%d, %d); masks %b",
				label, me, masks[me], levelAt[me], partAt[me], wl, wp, masks)
		}
	}
}

// sortedMasks returns masks in the three-key sort's (level, mask) order.
func sortedMasks(d int, masks []point.Mask) []point.Mask {
	slices.SortStableFunc(masks, func(a, b point.Mask) int {
		return cmp.Compare(a.CompoundKey(d), b.CompoundKey(d))
	})
	return masks
}

// TestPartitionStarts holds the per-block level and partition starts to
// the walk Phase II's loops 1–2 made before them, on the blocks where the
// two could part: Q-Flow's all-zero masks, a single partition, one row
// per partition, levels missing from the block, and blocks whose Phase I
// compress removed rows — a partition's leading rows among them.
func TestPartitionStarts(t *testing.T) {
	const d = 4
	checkStarts(t, "empty", nil)
	checkStarts(t, "qflow", make([]point.Mask, 9))
	checkStarts(t, "one partition", []point.Mask{0b0110, 0b0110, 0b0110, 0b0110})
	var distinct []point.Mask
	for m := point.Mask(0); m <= point.FullMask(d); m++ {
		distinct = append(distinct, m)
	}
	checkStarts(t, "one row per partition", sortedMasks(d, distinct))
	checkStarts(t, "missing levels", sortedMasks(d, []point.Mask{0, 0, 0b0101, 0b0101, 0b0011, 0b1111, 0b1111}))

	// Phase I's compress keeps the survivors' order: dropping the first
	// rows of partition 0b0011 leaves it starting where 0b0101's did.
	masks := []point.Mask{0, 0b0001, 0b0011, 0b0011, 0b0011, 0b0101, 0b0111}
	flags := []uint32{0, 0, 1, 1, 0, 0, 0}
	n := len(masks)
	surv := compress(point.NewMatrix(n, 1), make([]float64, n), make([]int, n), masks, make([]uint64, n), nil, 0, n, flags)
	if want := []point.Mask{0, 0b0001, 0b0011, 0b0101, 0b0111}; !slices.Equal(masks[:surv], want) {
		t.Fatalf("compressed masks %b, want %b", masks[:surv], want)
	}
	checkStarts(t, "leading rows pruned", masks[:surv])

	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + rng.Intn(6)
		n := rng.Intn(64)
		masks := make([]point.Mask, n)
		flags := make([]uint32, n)
		// Few distinct masks, so partitions hold several rows.
		palette := 1 + rng.Intn(1<<dim)
		for i := range masks {
			masks[i] = point.Mask(rng.Intn(palette))
			flags[i] = uint32(rng.Intn(3) / 2)
		}
		sortedMasks(dim, masks)
		surv := compress(point.NewMatrix(n, 1), make([]float64, n), make([]int, n), masks, make([]uint64, n), nil, 0, n, flags)
		checkStarts(t, "random", masks[:surv])
	}
}
