//go:build race

package server

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
