//go:build goexperiment.synctest

package cluster

import "time"

// A synctest build runs the in-process tests in a bubble, whose virtual
// clock advances only once every goroutine in it is blocked. On a
// zero-latency fabric an unpaced client loop always has work, so the
// clock never moves and the test's own retry sleeps never end. Give such
// fabrics the paper's 0.1 ms link latency, which netsim.Grid5000 models
// before its TimeScale dilation. Real-time builds keep zero latency:
// there it would only add wall time (docs/robustness.md).
func init() { bubbleLatency = 100 * time.Microsecond }
