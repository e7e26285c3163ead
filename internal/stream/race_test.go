//go:build race

package stream

// The race detector's instrumentation allocates on its own, so the
// exact allocation gates skip under -race.
func init() { raceEnabled = true }
