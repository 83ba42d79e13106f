module dgs/benchmark

go 1.22

require dgs v0.0.0

replace dgs => ../
