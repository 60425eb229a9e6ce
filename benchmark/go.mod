module taser/benchmark

go 1.24

require taser v0.0.0

replace taser => ../
