//go:build race

package metaprobe

const raceEnabled = true
