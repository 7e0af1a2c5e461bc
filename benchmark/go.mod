module metaprobe/benchmark

go 1.22

require metaprobe v0.0.0

replace metaprobe => ../
