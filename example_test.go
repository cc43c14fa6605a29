package skybench_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"

	"skybench"
)

// figure1a is the five-point example of the paper's Figure 1a: (x, y)
// with smaller preferred on both, q dominated by p and the other four
// mutually incomparable.
var figure1a = [][]float64{
	{2, 4}, // p
	{4, 6}, // q
	{1, 7}, // r
	{5, 2}, // s
	{8, 1}, // t
}

const figure1aNames = "pqrst"

// The quick start: prepare a Dataset once, then answer any number of
// queries over it on one Engine.
func ExampleEngine_Run() {
	ds, err := skybench.NewDataset(figure1a)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()

	// The zero Query runs Hybrid, minimizing every dimension.
	res, err := eng.Run(ctx, ds, skybench.Query{})
	if err != nil {
		log.Fatal(err)
	}
	sort.Ints(res.Indices) // Indices come in the algorithm's order, not the input's
	for _, i := range res.Indices {
		fmt.Printf("%c %v\n", figure1aNames[i], figure1a[i])
	}

	// Preferences flip or drop dimensions per query: keep x, maximize y.
	maxY, err := eng.Run(ctx, ds, skybench.Query{
		Prefs: []skybench.Pref{skybench.Min, skybench.Max},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, i := range maxY.Indices {
		fmt.Printf("with y maximized: %c\n", figure1aNames[i])
	}
	// Output:
	// p [2 4]
	// r [1 7]
	// s [5 2]
	// t [8 1]
	// with y maximized: r
}

// A Store fronts the Engine for services: named collections and an
// epoch-keyed result cache.
func ExampleStore() {
	ds, err := skybench.NewDataset(figure1a)
	if err != nil {
		log.Fatal(err)
	}
	st := skybench.NewStore(2)
	defer st.Close()
	routes, err := st.Attach("routes", ds, skybench.CollectionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The 2-skyband: every point with fewer than two dominators, with
	// its exact dominator count.
	q := skybench.Query{SkybandK: 2}
	res, err := routes.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	lines := make([]string, res.Len())
	for p, i := range res.Indices {
		lines[p] = fmt.Sprintf("%c %v dominators=%d", figure1aNames[i], res.Row(p), res.Counts[p])
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}

	// The collection is unchanged, so the same query is a cache hit.
	if _, err := routes.Run(ctx, q); err != nil {
		log.Fatal(err)
	}
	cs := routes.CacheStats()
	fmt.Printf("hits=%d misses=%d\n", cs.Hits, cs.Misses)
	// Output:
	// p [2 4] dominators=0
	// q [4 6] dominators=1
	// r [1 7] dominators=0
	// s [5 2] dominators=0
	// t [8 1] dominators=0
	// hits=1 misses=1
}

// Shortlisting hotels: cheap, close to the beach and well rated. The
// rating column is maximized by the query rather than negated by hand,
// and the same Dataset answers a second question — a traveller with a
// car ignores the distance — without restaging.
func ExampleQuery_prefs() {
	hotels := []struct {
		name             string
		price, km, stars float64
	}{
		{"Seaview", 180, 0.2, 4.6},
		{"Harbour", 120, 0.8, 4.1},
		{"Budget Inn", 60, 4.5, 3.2},
		{"Old Town", 95, 2.0, 4.4},
		{"Motel 9", 70, 5.0, 2.9},
		{"Grand", 240, 0.1, 4.5},
		{"Midway", 130, 1.5, 4.0},
	}
	rows := make([][]float64, len(hotels))
	for i, h := range hotels {
		rows[i] = []float64{h.price, h.km, h.stars}
	}
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()

	for _, prefs := range [][]skybench.Pref{
		{skybench.Min, skybench.Min, skybench.Max},    // price, distance, rating
		{skybench.Min, skybench.Ignore, skybench.Max}, // with a car
	} {
		res, err := eng.Run(ctx, ds, skybench.Query{Prefs: prefs})
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(res.Indices, func(a, b int) bool {
			return hotels[res.Indices[a]].price < hotels[res.Indices[b]].price
		})
		fmt.Print(prefs, ":")
		for _, i := range res.Indices {
			fmt.Print(" ", hotels[i].name)
		}
		fmt.Println()
	}
	// Output:
	// [min min max]: Budget Inn Old Town Harbour Seaview Grand
	// [min ignore max]: Budget Inn Old Town Seaview
}

// Hybrid and Q-Flow confirm skyline points block by block: Progressive
// receives each batch as soon as it is final, long before Run returns.
// Every confirmed point is in the final answer, and together the
// batches are the whole of it.
func ExampleQuery_progressive() {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 20000)
	for i := range rows {
		// Anticorrelated: a good first coordinate costs the second.
		x := rng.Float64()
		rows[i] = []float64{x, 1 - x + 0.2*rng.Float64(), rng.Float64()}
	}
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()

	confirmed := map[int]bool{}
	batches := 0
	res, err := eng.Run(context.Background(), ds, skybench.Query{
		Alpha: 1024,
		Progressive: func(batch []int) {
			batches++
			for _, i := range batch {
				confirmed[i] = true
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	all := len(confirmed) == len(res.Indices)
	for _, i := range res.Indices {
		all = all && confirmed[i]
	}
	fmt.Println("streamed in several batches:", batches > 1)
	fmt.Println("batches add up to the skyline:", all)
	// Output:
	// streamed in several batches: true
	// batches add up to the skyline: true
}

// Every algorithm computes the same skyline; they differ only in the
// work it takes, which Result.Stats reports.
func ExampleAlgorithm() {
	rng := rand.New(rand.NewSource(99))
	rows := make([][]float64, 4000)
	for i := range rows {
		budget := rng.Float64() // cheap services are slow and flaky
		rows[i] = []float64{
			(1 - budget) * rng.Float64(), // latency
			budget * rng.Float64(),       // cost
			(1 - budget) * rng.Float64(), // error rate
		}
	}
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	var first []int
	for _, alg := range skybench.Algorithms {
		res, err := eng.Run(context.Background(), ds, skybench.Query{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		sort.Ints(res.Indices)
		if first == nil {
			first = res.Indices
		}
		fmt.Printf("%-9s %d skyline services, same as %s: %v\n",
			alg, len(res.Indices), skybench.Algorithms[0], slices.Equal(res.Indices, first))
	}
	// Output:
	// hybrid    43 skyline services, same as hybrid: true
	// qflow     43 skyline services, same as hybrid: true
	// pskyline  43 skyline services, same as hybrid: true
	// pbskytree 43 skyline services, same as hybrid: true
	// bskytree  43 skyline services, same as hybrid: true
}
