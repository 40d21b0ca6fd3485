//go:build race

package main

// Under the race detector the restart test builds the binary with it too.
func init() { raceEnabled = true }
