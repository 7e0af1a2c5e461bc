//go:build !race

package metaprobe

const raceEnabled = false
