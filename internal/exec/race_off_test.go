//go:build !race

package exec_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
