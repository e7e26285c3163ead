//go:build race

package noc

// The race detector's instrumentation allocates on its own, so the
// exact allocation gates skip under -race.
func init() { raceEnabled = true }
