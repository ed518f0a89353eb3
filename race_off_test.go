//go:build !race

package snnsec

const raceEnabled = false
