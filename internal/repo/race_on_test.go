//go:build race

package repo

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
