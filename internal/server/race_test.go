//go:build race

package server

// The race detector instruments allocation and makes sync.Pool drop what
// it is handed at random, so allocation counts mean nothing under it.
func init() { raceEnabled = true }
