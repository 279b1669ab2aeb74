//go:build race

package core

// raceEnabled reports whether the tests run under the race detector
// (allocs_test.go sets it without).
const raceEnabled = true
