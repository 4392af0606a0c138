module gpusched/benchmark

go 1.22

require gpusched v0.0.0

replace gpusched => ../
