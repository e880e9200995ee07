//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. The race
// runtime slows the server's command path far more than the transport,
// which compresses the batch-over-standalone ratio the timing gate
// bounds.
const raceEnabled = true
