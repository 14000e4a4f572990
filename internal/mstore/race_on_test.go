//go:build race

package mstore

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put into it, so an allocation gate that crosses the rpc layer's
// pooled buffers cannot hold.
const raceEnabled = true
