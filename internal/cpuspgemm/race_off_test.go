//go:build !race

package cpuspgemm

const raceEnabled = false
