// Command datagen writes synthetic skyline workloads (and the real-data
// stand-ins) to CSV files for use with cmd/skybench -input or external
// tools.
//
// Usage:
//
//	datagen -dist anticorrelated -n 1000000 -d 12 -o anti_1m_12.csv
//	datagen -real weather -scale 0.25 -o weather_quarter.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

func main() {
	var (
		distName = flag.String("dist", "independent", "distribution: correlated|independent|anticorrelated")
		n        = flag.Int("n", 100000, "cardinality")
		d        = flag.Int("d", 8, "dimensionality")
		seed     = flag.Int64("seed", 42, "generator seed")
		realName = flag.String("real", "", "real-data stand-in instead: nba|house|weather")
		scale    = flag.Float64("scale", 1, "scale factor for -real (0,1]")
		levels   = flag.Int("quantize", 0, "quantize to this many value levels (0 = off)")
		out      = flag.String("o", "", "output CSV path (required)")
	)
	flag.Parse()
	if *out == "" {
		fatal(fmt.Errorf("-o output path is required"))
	}

	var m point.Matrix
	switch *realName {
	case "":
		dist, err := dataset.ParseDistribution(*distName)
		if err != nil {
			fatal(err)
		}
		m = dataset.Generate(dist, *n, *d, *seed)
		if *levels > 0 {
			dataset.Quantize(m, *levels)
		}
	case "nba":
		m = dataset.NBA.Load(*scale)
	case "house":
		m = dataset.House.Load(*scale)
	case "weather":
		m = dataset.Weather.Load(*scale)
	default:
		fatal(fmt.Errorf("unknown real dataset %q", *realName))
	}

	if err := dataset.WriteFile(*out, m); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d points × %d dims to %s\n", m.N(), m.D(), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
