// Hotels: multi-criteria shortlisting, the classic skyline use case.
// A traveller wants a hotel that is cheap, close to the beach, and
// well-reviewed. No single weighting of those criteria is right for
// everyone; the skyline is exactly the set of hotels that are optimal
// under *some* preference — everything else is objectively worse than
// an alternative on all counts.
//
// The rating column is maximized by declaring skybench.Max in the
// query instead of negating it by hand, and the same prepared Dataset
// then answers a second, different query (a price/rating subspace
// skyline) without restaging.
//
// Run with: go run ./examples/hotels
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"skybench"
)

type hotel struct {
	name     string
	price    float64 // EUR per night   (minimize)
	distance float64 // km to the beach (minimize)
	rating   float64 // 1..5 stars      (maximize)
}

func main() {
	hotels := generateHotels(500)

	// Build the criteria matrix exactly as the data is: no caller-side
	// negation — the query says which way each column points.
	data := make([][]float64, len(hotels))
	for i, h := range hotels {
		data[i] = []float64{h.price, h.distance, h.rating}
	}
	ds, err := skybench.NewDataset(data)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(0)
	defer eng.Close()
	ctx := context.Background()

	res, err := eng.Run(ctx, ds, skybench.Query{
		Prefs: []skybench.Pref{skybench.Min, skybench.Min, skybench.Max},
	})
	if err != nil {
		log.Fatal(err)
	}

	short := make([]hotel, 0, len(res.Indices))
	for _, i := range res.Indices {
		short = append(short, hotels[i])
	}
	sort.Slice(short, func(a, b int) bool { return short[a].price < short[b].price })

	fmt.Printf("%d hotels reduced to a skyline shortlist of %d:\n\n", len(hotels), len(short))
	fmt.Printf("%-12s %10s %10s %8s\n", "hotel", "price", "distance", "rating")
	for _, h := range short {
		fmt.Printf("%-12s %9.0f€ %8.1fkm %8.1f\n", h.name, h.price, h.distance, h.rating)
	}
	fmt.Println("\nEvery hotel not listed is worse than some listed hotel on price,")
	fmt.Println("distance, AND rating simultaneously.")

	// The same Dataset answers a different question with no restaging:
	// a traveller with a car doesn't care about the beach distance.
	noCar, err := eng.Run(ctx, ds, skybench.Query{
		Prefs: []skybench.Pref{skybench.Min, skybench.Ignore, skybench.Max},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIgnoring distance (price/rating subspace): %d hotels remain optimal.\n",
		len(noCar.Indices))
}

// generateHotels synthesizes a plausible market: price anti-correlates
// with distance (seafront is expensive) and correlates with rating.
func generateHotels(n int) []hotel {
	rng := rand.New(rand.NewSource(7))
	out := make([]hotel, n)
	for i := range out {
		quality := rng.Float64()  // latent quality of the hotel
		seafront := rng.Float64() // latent location quality
		price := 40 + 260*quality*0.6 + 200*seafront*0.4 + 30*rng.Float64()
		distance := 12 * (1 - seafront) * (0.5 + 0.5*rng.Float64())
		rating := 1 + 4*(0.7*quality+0.3*rng.Float64())
		out[i] = hotel{
			name:     fmt.Sprintf("hotel-%03d", i),
			price:    float64(int(price)),
			distance: float64(int(distance*10)) / 10,
			rating:   float64(int(rating*10)) / 10,
		}
	}
	return out
}
