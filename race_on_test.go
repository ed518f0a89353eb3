//go:build race

package snnsec

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a share of what it is given and
// an allocation budget measures the detector, not the program.
const raceEnabled = true
