package stream_test

import (
	"fmt"
	"log"
	"sort"

	"skybench/stream"
)

// A sliding window keeps the skyline of the most recent points exact:
// once the window is full, each Push evicts the oldest point, and a
// point the evicted one dominated comes back into the skyline.
func ExampleWindow() {
	win, err := stream.NewWindow(3, 2, stream.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer win.Close()
	for _, p := range [][]float64{{5, 5}, {1, 1}, {4, 2}, {3, 6}, {6, 0}} {
		if _, err := win.Push(p); err != nil {
			log.Fatal(err)
		}
		snap := win.Snapshot() // immutable; its order is unspecified
		rows := make([][]float64, snap.Len())
		for i := range rows {
			rows[i] = snap.Row(i)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a][0] < rows[b][0] })
		fmt.Printf("push %v: %d live, skyline %v\n", p, win.Len(), rows)
	}
	// Output:
	// push [5 5]: 1 live, skyline [[5 5]]
	// push [1 1]: 2 live, skyline [[1 1]]
	// push [4 2]: 3 live, skyline [[1 1]]
	// push [3 6]: 3 live, skyline [[1 1]]
	// push [6 0]: 3 live, skyline [[3 6] [4 2] [6 0]]
}
