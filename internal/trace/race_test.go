//go:build race

package trace

// The race detector's instrumentation allocates on its own, so the
// exact allocation gate skips under -race.
func init() { raceEnabled = true }
