package skybench

import "skybench/internal/faults"

// SetEngineFaults arms (or clears, with nil) the Engine's fault-injection
// hook for the robustness tests in package skybench_test.
func SetEngineFaults(in *faults.Injector) { engineFaults = in }

// AlgorithmNames is algorithmNames, for TestAlgorithmNamesSorted.
var AlgorithmNames = algorithmNames

// NewStoreOnEngine is a Store with admission options over a shared
// Engine, which no exported constructor combines.
var NewStoreOnEngine = newStore

// ParEff is parEff, for the trace tests.
func (t *QueryTrace) ParEff() float64 { return t.parEff() }

// N, D and Row expose a Dataset's contents to the constructor tests.
func (ds *Dataset) N() int              { return ds.n }
func (ds *Dataset) D() int              { return ds.d }
func (ds *Dataset) Row(i int) []float64 { return ds.row(i) }
