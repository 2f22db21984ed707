//go:build race

package dataflow

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is given.
const raceEnabled = true
