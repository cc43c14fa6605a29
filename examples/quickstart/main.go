// Quickstart: the smallest useful skybench program. It computes the
// skyline of a handful of two-dimensional points (the example of the
// paper's Figure 1a) and prints the result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"skybench"
)

func main() {
	// Points are (x, y) with smaller preferred on both dimensions —
	// e.g. (fuel consumption, expected travel time) of route options.
	points := [][]float64{
		{2, 4}, // p — skyline
		{4, 6}, // q — dominated by p
		{1, 7}, // r — skyline
		{5, 2}, // s — skyline
		{8, 1}, // t — skyline
	}
	names := []string{"p", "q", "r", "s", "t"}

	// Prepare the dataset once, then answer as many queries as needed
	// (Engine is safe for concurrent use and honors context deadlines).
	// The zero Query runs Hybrid, minimizing every dimension.
	ds, err := skybench.NewDataset(points)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	res, err := eng.Run(context.Background(), ds, skybench.Query{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("skyline (non-dominated) options:")
	for _, i := range res.Indices {
		fmt.Printf("  %s = %v\n", names[i], points[i])
	}
	fmt.Printf("\n%d of %d points are in the skyline; %d dominance tests, %v\n",
		res.Stats.SkylineSize, res.Stats.InputSize,
		res.Stats.DominanceTests, res.Stats.Elapsed)

	// Preferences flip or drop dimensions per query: maximize y, keep x.
	maxY, err := eng.Run(context.Background(), ds, skybench.Query{
		Prefs: []skybench.Pref{skybench.Min, skybench.Max},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("with y maximized instead: ")
	for _, i := range maxY.Indices {
		fmt.Printf("%s ", names[i])
	}
	fmt.Println()
}
