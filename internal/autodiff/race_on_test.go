//go:build race

package autodiff

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops buffers at random, so an arena
// Get may allocate and allocation counts do not hold.
const raceEnabled = true
