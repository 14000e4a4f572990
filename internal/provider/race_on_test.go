//go:build race

package provider

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put into it, so allocation gates on pooled buffers cannot hold.
const raceEnabled = true
