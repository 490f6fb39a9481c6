// The benchmark is a module of its own so that it builds from its own
// build file; the import path stays under repro/ so it may import
// repro/internal/... and the replace points at the checkout it sits in.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
