//go:build !race

package autodiff

const raceEnabled = false
