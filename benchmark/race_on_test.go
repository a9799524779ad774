//go:build linux && race

package main

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so pooled decisions allocate and decide_alloc_free cannot hold.
const raceEnabled = true
