module cachier/benchmark

go 1.22

require cachier v0.0.0

replace cachier => ../
