module pathenum/benchmark

go 1.23

require pathenum v0.0.0

replace pathenum => ../
