//go:build race

package query

// raceEnabled reports that the tests were built with the race detector,
// under which allocation counts mean nothing.
const raceEnabled = true
