//go:build unix

package vmanager

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"blob/internal/erasure"
	"blob/internal/rpc"
)

// BenchmarkGroupPublish measures what one publish costs the version
// plane: a replica group on real loopback TCP, at blobnode's default
// -vheartbeat, and N clients each looping AssignVersion + a blocking
// Commit on one shared blob. It reports publishes per CPU-second and
// CPU-µs per publish from getrusage over the whole process, so the
// clients' CPU is counted too and the figure errs low. It asserts
// nothing; b.N publishes in total are shared among the clients, so
// -benchtime 1x does one.
func BenchmarkGroupPublish(b *testing.B) {
	for _, c := range []struct{ replicas, clients int }{
		{3, 1}, {3, 8}, {3, 32}, {1, 8},
	} {
		b.Run(fmt.Sprintf("replicas=%d/clients=%d", c.replicas, c.clients), func(b *testing.B) {
			benchGroupPublish(b, c.replicas, c.clients)
		})
	}
}

func benchGroupPublish(b *testing.B, replicas, clients int) {
	addrs := make([]string, replicas)
	listeners := make([]net.Listener, replicas)
	for j := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("loopback TCP unavailable: %v", err)
		}
		listeners[j], addrs[j] = l, l.Addr().String()
	}
	for j, l := range listeners {
		pool := rpc.NewPool(rpc.TCP{})
		rep, err := NewReplica(ReplicaConfig{
			Index:     j,
			Peers:     addrs,
			Pool:      pool,
			Heartbeat: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := rpc.NewServer()
		rep.RegisterHandlers(srv)
		srv.Start(l)
		b.Cleanup(func() { srv.Close(); rep.Close(); pool.Close() })
	}
	pool := rpc.NewPool(rpc.TCP{})
	b.Cleanup(pool.Close)
	g := NewGroupClient(pool, addrs)
	ctx := context.Background()
	blob, err := g.CreateBlob(ctx, 64<<10, 1<<40, erasure.Redundancy{})
	if err != nil {
		b.Fatal(err)
	}

	var left atomic.Int64
	left.Store(int64(b.N))
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	before := cpuTime()
	b.ResetTimer()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; left.Add(-1) >= 0; i++ {
				a, err := g.AssignVersion(ctx, blob, uint64(w)<<32|uint64(i), 0, 64<<10, false)
				if err == nil {
					_, err = g.Commit(ctx, blob, a.Version, true)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	cpu := cpuTime() - before
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	if cpu <= 0 {
		return // below getrusage's resolution: nothing to report
	}
	b.ReportMetric(float64(b.N)/cpu.Seconds(), "publishes/cpu_s")
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu_us/publish")
}

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
