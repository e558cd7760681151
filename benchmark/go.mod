module sim/benchmark

go 1.22

require sim v0.0.0

replace sim => ../
