// The benchmark is a module of its own so that it builds from its own
// build file. Its import path stays under skybench/ because the
// coordinator rung needs skybench/internal/cluster.
module skybench/cmd/loadbench

go 1.24

require skybench v0.0.0

replace skybench => ../..
