//go:build race

package server

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation pins that rely on a pooled value skip.
const raceEnabled = true
