module netpart/benchmark

go 1.22

require netpart v0.0.0

replace netpart => ../
