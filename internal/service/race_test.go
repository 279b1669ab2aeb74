//go:build race

package service

// raceSlowdown scales the wall-clock slack of the bounded-compute
// tests: the race detector slows the exhaustive search several-fold,
// and with it the time between two of the search's cancellation polls.
const raceSlowdown = 3
