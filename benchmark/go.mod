module blob/benchmark

go 1.24

require blob v0.0.0

replace blob => ../
