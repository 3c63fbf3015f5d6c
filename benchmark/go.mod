module omegasm/benchmark

go 1.24

require omegasm v0.0.0

replace omegasm => ../
