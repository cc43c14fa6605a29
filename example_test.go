package skybench_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"skybench"
)

// figure1a is the five-point example of the paper's Figure 1a (the data
// of examples/quickstart): (x, y) with smaller preferred on both, q
// dominated by p and the other four mutually incomparable.
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
		fmt.Printf("%c %v\n", figure1aNames[i], ds.Row(i))
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

// A Store fronts the Engine for services: named collections, sharded
// fan-out with an exact merge, and an epoch-keyed result cache.
func ExampleStore() {
	ds, err := skybench.NewDataset(figure1a)
	if err != nil {
		log.Fatal(err)
	}
	st := skybench.NewStore(2)
	defer st.Close()
	routes, err := st.Attach("routes", ds, skybench.CollectionOptions{Shards: 2})
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
