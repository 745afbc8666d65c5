//go:build race

package codec

// raceEnabled reports whether the tests were built with the race detector.
const raceEnabled = true
