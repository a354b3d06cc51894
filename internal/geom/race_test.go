//go:build race

package geom

// raceEnabled: the race detector's sync.Pool drops a random quarter of what
// is put back, so allocation counts of pooled code mean nothing under it.
const raceEnabled = true
