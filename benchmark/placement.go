package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Placement: the load process and, by inheritance, every blobnode it
// starts run on one CPU, the first this process may use.
//
// The reference machine is a shared 2-vCPU guest. Left to the scheduler,
// runs of one binary fell into two modes 40 % apart in throughput, in
// latency and in CPU per op alike (finegrain-read: ~1 900 or ~1 300
// ops/s, ten runs splitting five and five). What differs is the price of
// a wake-up that crosses CPUs — in a guest an inter-processor interrupt
// through the hypervisor, dearer or cheaper with wherever the host has
// put the two vCPUs at the moment — and a small read is a chain of a
// dozen such wake-ups. Splitting client and nodes over the two CPUs kept
// both modes. On one CPU no wake-up crosses, and ten runs in a row agree
// within 2-12 %. The price is that the store's fan-out cannot use a second
// core: the benchmark measures the work an operation costs, not how well
// a machine's cores overlap it.
//
// The load process then runs its Go scheduler on one P as well, as the
// blobnodes, started pinned, do by themselves: with two Ps on one CPU
// the runtime's spinning threads took the CPU from the store (ten
// alternating finegrain-read runs: 1 560-1 760 ops/s with two Ps,
// 1 990-2 100 with one).

// allowedCPUs parses Cpus_allowed_list of /proc/self/status ("0-1",
// "4,6-7"): under a cpuset the usable CPUs need not start at 0.
func allowedCPUs() ([]int, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		var cpus []int
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			if !isRange {
				hi = lo
			}
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("Cpus_allowed_list %q: cannot parse", list)
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		}
		if len(cpus) > 0 {
			return cpus, nil
		}
	}
	return nil, fmt.Errorf("/proc/self/status: no Cpus_allowed_list")
}

// setThreadAffinity restricts one thread to cpu.
func setThreadAffinity(tid, cpu int) error {
	var mask [16]uint64 // room for 1024 CPUs
	if cpu < 0 || cpu >= len(mask)*64 {
		return fmt.Errorf("cpu %d out of range", cpu)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, errno)
	}
	return nil
}

// pinToOneCPU moves every thread of this process to the first CPU it may
// use and sets GOMAXPROCS to 1; threads and children started later
// inherit the CPU. It returns a line for the run's header. Where the
// sandbox forbids pinning, the run goes on unpinned and the line says so.
func pinToOneCPU() string {
	cpus, err := allowedCPUs()
	// Twice: a thread the runtime starts during the first pass may have
	// been cloned from one not yet moved.
	for pass := 0; pass < 2 && err == nil; pass++ {
		var tasks []os.DirEntry
		if tasks, err = os.ReadDir("/proc/self/task"); err != nil {
			break
		}
		for _, t := range tasks {
			tid, _ := strconv.Atoi(t.Name())
			if err = setThreadAffinity(tid, cpus[0]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fmt.Sprintf("unpinned (%v)", err)
	}
	runtime.GOMAXPROCS(1)
	return fmt.Sprintf("load process (GOMAXPROCS 1) and blobnodes on cpu %d", cpus[0])
}
