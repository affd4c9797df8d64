//go:build race

package serve

// The race detector's sync.Pool drops a quarter of what is put into it, by
// design, so the body pool cannot be relied on to return a buffer.
func init() { raceEnabled = true }
