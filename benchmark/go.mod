module specweb/benchmark

go 1.22

require specweb v0.0.0

replace specweb => ../
