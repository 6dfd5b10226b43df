module saco/benchmarks

go 1.24.0

require saco v0.0.0

replace saco => ../
