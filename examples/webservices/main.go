// Web services: QoS-based service selection for composition, one of the
// paper's motivating applications ([1] Alrifai et al., WWW 2010). A
// composition engine must pick, per abstract task, a concrete service
// from hundreds of candidates described by quality-of-service vectors.
// Reducing each candidate pool to its skyline before optimization
// shrinks the search space without excluding any Pareto-optimal
// composition.
//
// This example also contrasts algorithms on the same pool, showing the
// dominance-test counts that make Hybrid the right default.
//
// Run with: go run ./examples/webservices
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"skybench"
)

func main() {
	const candidates = 4000
	pool := generateQoS(candidates)

	fmt.Printf("service pool: %d candidates × %d QoS attributes\n", len(pool), len(pool[0]))
	fmt.Println("attributes: latency(ms), cost(¢/call), error rate(%), load(%), jitter(ms)")
	fmt.Println()

	ds, err := skybench.NewDataset(pool)
	if err != nil {
		log.Fatal(err)
	}
	eng := skybench.NewEngine(0) // all CPUs
	defer eng.Close()
	ctx := context.Background()

	for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow, skybench.PSkyline, skybench.BSkyTree} {
		res, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s skyline=%4d  dominance tests=%9d  time=%v\n",
			alg, res.Stats.SkylineSize, res.Stats.DominanceTests, res.Stats.Elapsed)
	}

	// Show a few skyline services.
	res, err := eng.Run(ctx, ds, skybench.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsample of Pareto-optimal services:")
	for k, i := range res.Indices {
		if k >= 5 {
			fmt.Printf("  ... and %d more\n", len(res.Indices)-5)
			break
		}
		p := pool[i]
		fmt.Printf("  svc-%04d: latency=%5.1fms cost=%4.1f¢ err=%4.2f%% load=%4.1f%% jitter=%4.1fms\n",
			i, p[0], p[1], p[2], p[3], p[4])
	}
}

// generateQoS synthesizes service QoS vectors: cheap services tend to be
// slow and flaky (anticorrelated trade-offs), plus measurement noise.
func generateQoS(n int) [][]float64 {
	rng := rand.New(rand.NewSource(99))
	out := make([][]float64, n)
	for i := range out {
		budget := rng.Float64() // latent "how much the operator spends"
		lat := 20 + 480*(1-budget)*(0.4+0.6*rng.Float64())
		cost := 0.5 + 9.5*budget*(0.4+0.6*rng.Float64())
		errRate := 5 * (1 - budget) * rng.Float64()
		load := 100 * rng.Float64()
		jitter := lat * 0.2 * rng.Float64()
		out[i] = []float64{
			float64(int(lat*10)) / 10,
			float64(int(cost*10)) / 10,
			float64(int(errRate*100)) / 100,
			float64(int(load*10)) / 10,
			float64(int(jitter*10)) / 10,
		}
	}
	return out
}
