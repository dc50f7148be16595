//go:build race

package engine

// raceEnabled reports a -race build. Its sync.Pool drops a random quarter of
// what is put back, so an allocation count that relies on a pool is not the
// program's there.
const raceEnabled = true
