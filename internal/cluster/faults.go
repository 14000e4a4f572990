// Fault injection. Two families live here:
//
//   - Crash faults for the version plane (docs/vmanager-group.md):
//     kill, restart and partition individual vmanager replicas and wait
//     out leader handoff.
//
//   - Gray failures over the netsim fabric (docs/robustness.md):
//     SlowProvider, StallProvider, FlakyProvider and FlakyLink degrade
//     a node's links without stopping its process — heartbeats keep
//     flowing (they are sent by the harness's own "hb" host), so the
//     provider manager keeps believing the node is healthy. These are
//     the failures the deadline/hedge/breaker machinery is built to
//     absorb, and Heal undoes them all.

package cluster

import (
	"fmt"
	"time"

	"blob/internal/netsim"
	"blob/internal/vmanager"
)

// VMReplica returns vmanager replica j, or nil after KillVMReplica
// (until RestartVMReplica brings it back).
func (c *Cluster) VMReplica(j int) *vmanager.Replica {
	c.svcMu.RLock()
	defer c.svcMu.RUnlock()
	if j < 0 || j >= len(c.VMReplicas) {
		return nil
	}
	return c.VMReplicas[j]
}

// VMLeader polls the live vmanager replicas and returns the index of
// the one currently claiming leadership, or -1 if none does. When
// several claim (a partitioned stale leader plus its replacement), the
// highest term wins.
func (c *Cluster) VMLeader() int {
	c.svcMu.RLock()
	defer c.svcMu.RUnlock()
	best, bestTerm := -1, uint64(0)
	for j, rep := range c.VMReplicas {
		if rep == nil {
			continue
		}
		if st := rep.Status(); st.IsLeader && (best < 0 || st.Term > bestTerm) {
			best, bestTerm = j, st.Term
		}
	}
	return best
}

// KillVMReplica crash-stops vmanager replica j: its RPC server closes
// (in-flight and future connections die) and the replica process stops.
// All in-memory version state is lost — exactly a node crash. Restart
// with RestartVMReplica. No-op if already killed.
func (c *Cluster) KillVMReplica(j int) error {
	c.svcMu.Lock()
	if j < 0 || j >= len(c.VMReplicas) {
		c.svcMu.Unlock()
		return fmt.Errorf("cluster: no vmanager replica %d", j)
	}
	rep, srv := c.VMReplicas[j], c.VMServers[j]
	c.VMReplicas[j] = nil
	c.VMServers[j] = nil
	c.svcMu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if rep != nil {
		rep.Close()
	}
	return nil
}

// RestartVMReplica relaunches a killed replica at its original address
// with empty state. It rejoins as a follower and catches up by snapshot
// install from the current leader — except in a single-replica group,
// which has no incumbent: there the replica cold-boots as leader, and
// the version state is gone (RAM-only, as in the paper).
func (c *Cluster) RestartVMReplica(j int) error {
	c.svcMu.RLock()
	ok := j >= 0 && j < len(c.VMReplicas)
	running := ok && c.VMReplicas[j] != nil
	c.svcMu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: no vmanager replica %d", j)
	}
	if running {
		return fmt.Errorf("cluster: vmanager replica %d still running", j)
	}
	return c.startVMReplica(j, c.cfg.VReplicas > 1)
}

// PartitionVMReplica cuts vmanager replica j off from the network in
// both directions without stopping it — it keeps running (and a
// partitioned leader keeps believing it leads until it fails to reach a
// quorum). Heal with HealVMReplica.
func (c *Cluster) PartitionVMReplica(j int) {
	c.fab.SetHostFault(fmt.Sprintf("vm-r%d", j), netsim.Fault{DropProb: 1, RefuseDial: true})
}

// HealVMReplica reconnects a partitioned replica.
func (c *Cluster) HealVMReplica(j int) { c.fab.ClearHostFault(fmt.Sprintf("vm-r%d", j)) }

// Fabric exposes the simulated network fabric for fault injection the
// helpers below do not cover.
func (c *Cluster) Fabric() *netsim.Net { return c.fab }

// DataHostName returns the simulated host name of data provider i —
// the value FlakyLink and Fabric-level fault injection address hosts
// by.
func (c *Cluster) DataHostName(i int) string { return c.hostName("data", i) }

// dataAddr is data provider i's RPC endpoint on the fabric. Faults are
// installed on the endpoint, not the host, so a co-located metadata
// provider on the same simulated machine stays healthy — the sharpest
// form of gray failure.
func (c *Cluster) dataAddr(i int) string { return c.hostName("data", i) + ":data" }

// SlowProvider makes data provider i slow without killing it: every
// frame to or from its RPC endpoint is delayed by extra, plus a
// uniformly random jitter in [0, jitter). The provider keeps serving
// and heartbeating — it is just gray. Undo with HealProvider or Heal.
func (c *Cluster) SlowProvider(i int, extra, jitter time.Duration) {
	c.fab.SetAddrFault(c.dataAddr(i), netsim.Fault{ExtraLatency: extra, Jitter: jitter})
}

// StallProvider freezes data provider i's RPC endpoint: connections
// stay up, dials succeed, but no frame moves in either direction until
// HealProvider or Heal. The gray failure a crash detector never sees.
func (c *Cluster) StallProvider(i int) {
	c.fab.SetAddrFault(c.dataAddr(i), netsim.Fault{Stall: true})
}

// FlakyProvider makes connections touching data provider i's RPC
// endpoint reset with probability p per frame (a TCP RST, never silent
// byte loss — the rpc layer sees a clean connection error and its
// retry/breaker machinery takes over).
func (c *Cluster) FlakyProvider(i int, p float64) {
	c.fab.SetAddrFault(c.dataAddr(i), netsim.Fault{DropProb: p})
}

// HealProvider clears the gray fault on data provider i's endpoint.
func (c *Cluster) HealProvider(i int) { c.fab.SetAddrFault(c.dataAddr(i), netsim.Fault{}) }

// FlakyLink makes the directed fabric link from one named host to
// another reset connections with probability p per frame. Host names
// follow the Launch topology ("client1", "node0", "pm", ...). Undo
// with p == 0 or Heal.
func (c *Cluster) FlakyLink(from, to string, p float64) {
	c.fab.SetLinkFault(from, to, netsim.Fault{DropProb: p})
}

// Heal removes every injected fabric fault (but does not rejoin
// vmanager partitions — those are process-level, see HealVMReplica).
func (c *Cluster) Heal() { c.fab.Heal() }

// WaitVMLeader blocks until a vmanager replica whose index differs from
// `not` (pass -1 to accept any) claims leadership, returning the leader
// index, or -1 on timeout. The usual call after killing a leader:
// WaitVMLeader(killed, timeout).
func (c *Cluster) WaitVMLeader(not int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if l := c.VMLeader(); l >= 0 && l != not {
			return l
		}
		if time.Now().After(deadline) {
			return -1
		}
		time.Sleep(2 * time.Millisecond)
	}
}
