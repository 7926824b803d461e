//go:build !race

package provpriv

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
