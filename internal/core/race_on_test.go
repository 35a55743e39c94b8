//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so nothing pooled reaches a steady state.
const raceEnabled = true
