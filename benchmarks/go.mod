module visibility/benchmarks

go 1.22

require visibility v0.0.0

replace visibility => ../
