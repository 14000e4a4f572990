package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"blob/internal/monitor"
	"blob/internal/rpc"
	"blob/internal/trace"
)

// runTop implements `blobctl -monitor host:port top`: a live refreshing
// terminal dashboard over the monitor's MCluster snapshot — health
// verdict with reasons, capacity, the provider table, the version-plane
// row, and a scrolling cluster event tail (docs/observability.md).
func runTop(monAddr string, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	once := fs.Bool("once", false, "print one frame and exit (no screen clearing)")
	tail := fs.Int("events", 12, "event-tail lines to show")
	fs.Parse(args)
	if monAddr == "" {
		log.Fatal("top needs -monitor (the monitor node's RPC address)")
	}
	pool := rpc.NewPool(rpc.TCP{})
	defer pool.Close()
	ctx := context.Background()
	for {
		s, err := monitor.FetchCluster(ctx, pool, monAddr, nil)
		if err != nil {
			log.Fatalf("top: %s: %v", monAddr, err)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		printSnapshot(s, *tail)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// runEvents implements `blobctl -monitor host:port events`: print the
// monitor's merged cluster event tail, optionally following it like
// `tail -f` with a time cursor so each event prints exactly once.
func runEvents(monAddr string, args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	follow := fs.Bool("follow", false, "keep polling and print new events as they arrive")
	minSev := fs.String("min-severity", "info", "lowest severity to show: info|warn|error")
	interval := fs.Duration("interval", time.Second, "poll period with -follow")
	asJSON := fs.Bool("json", false, "machine-readable output: one JSON document per event")
	fs.Parse(args)
	if monAddr == "" {
		log.Fatal("events needs -monitor (the monitor node's RPC address)")
	}
	sev, err := trace.ParseSeverity(*minSev)
	if err != nil {
		log.Fatalf("events: %v", err)
	}
	pool := rpc.NewPool(rpc.TCP{})
	defer pool.Close()
	ctx := context.Background()
	enc := json.NewEncoder(os.Stdout)
	var since int64
	for {
		s, err := monitor.FetchCluster(ctx, pool, monAddr, monitor.EncodeClusterQuery(since, sev))
		if err != nil {
			log.Fatalf("events: %s: %v", monAddr, err)
		}
		for _, e := range s.Events {
			if *asJSON {
				enc.Encode(e)
			} else {
				fmt.Println(e.Format())
			}
			if e.Time > since {
				since = e.Time
			}
		}
		if !*follow {
			return
		}
		time.Sleep(*interval)
	}
}

// printSnapshot renders one dashboard frame.
func printSnapshot(s monitor.ClusterSnapshot, tail int) {
	at := time.Unix(0, s.Time).Format("15:04:05")
	fmt.Printf("cluster health: %-7s as of %s", health(s.Health), at)
	if s.Redundancy != "" {
		fmt.Printf("   redundancy %s", s.Redundancy)
	}
	fmt.Printf("   epoch %d\n", s.Epoch)
	for _, r := range s.Reasons {
		fmt.Printf("  ! %s\n", r)
	}

	alive := len(s.Providers) - s.DeadProviders
	fmt.Printf("providers %d alive / %d dead   pages %d   used %s", alive, s.DeadProviders, s.TotalPages, sizeOf(s.UsedBytes))
	if s.CapacityBytes > 0 {
		fmt.Printf(" of %s (%.1f%%)", sizeOf(s.CapacityBytes), 100*float64(s.UsedBytes)/float64(s.CapacityBytes))
	}
	fmt.Println()
	fmt.Printf("redundancy debt %d (peak %d)   repair pending %v", s.RedundancyDebt, s.DebtPeak, s.RepairPending)
	if s.LastSweep != 0 {
		fmt.Printf("   last sweep %s", time.Unix(0, s.LastSweep).Format("15:04:05"))
	}
	fmt.Println()
	if s.BreakersOpen > 0 {
		fmt.Printf("breakers open %d:", s.BreakersOpen)
		for _, b := range s.OpenBreakers {
			fmt.Printf("  %s", b)
		}
		fmt.Println()
	}
	if s.ReadP99 > 0 || s.WriteP99 > 0 {
		fmt.Printf("read  p50 %-9v p99 %-9v max %-9v\n",
			time.Duration(s.ReadP50), time.Duration(s.ReadP99), time.Duration(s.ReadMax))
		fmt.Printf("write p50 %-9v p99 %-9v max %-9v\n",
			time.Duration(s.WriteP50), time.Duration(s.WriteP99), time.Duration(s.WriteMax))
	}

	if len(s.Providers) > 0 {
		fmt.Printf("\n%-4s %-22s %-6s %10s %8s %7s %8s %8s\n",
			"id", "addr", "state", "used", "pages", "active", "get/s", "put/s")
		for _, p := range s.Providers {
			state := "alive"
			if !p.Alive {
				state = "dead"
			}
			fmt.Printf("%-4d %-22s %-6s %10s %8d %7d %8.1f %8.1f\n",
				p.ID, p.Addr, state, sizeOf(p.BytesUsed), p.PageCount, p.ActiveOps, p.GetsPerSec, p.PutsPerSec)
		}
	}
	if vm := s.VM; vm != nil {
		leader := "none"
		if vm.Leader >= 0 {
			leader = fmt.Sprintf("r%d", vm.Leader)
		}
		fmt.Printf("\n%-8s %6s %11s %9s %7s\n", "leader", "term", "reachable", "loglen", "blobs")
		fmt.Printf("%-8s %6d %7d/%-3d %9d %7d\n", leader, vm.Term, vm.Reachable, vm.Replicas, vm.LogLen, vm.Blobs)
	}
	if n := len(s.Events); n > 0 && tail > 0 {
		if n > tail {
			s.Events = s.Events[n-tail:]
		}
		fmt.Println()
		for _, e := range s.Events {
			fmt.Println(e.Format())
		}
	}
}

// health renders the verdict with an ANSI color when stdout looks like
// a terminal frame anyway (top clears the screen, so color is safe).
func health(h string) string {
	switch h {
	case monitor.HealthGreen:
		return "\x1b[32mGREEN\x1b[0m"
	case monitor.HealthYellow:
		return "\x1b[33mYELLOW\x1b[0m"
	case monitor.HealthRed:
		return "\x1b[31mRED\x1b[0m"
	}
	return "UNKNOWN"
}

// sizeOf formats a byte count with a binary unit.
func sizeOf(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
