// The benchmark is a module of its own, nested in the repository it
// measures: the rftp/ path prefix is what lets it import rftp/internal
// packages from outside, through their public functions only.
module rftp/benchmark

go 1.22

require rftp v0.0.0

replace rftp => ../
