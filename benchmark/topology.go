package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"blob/internal/core"
	"blob/internal/provider"
	"blob/internal/rpc"
)

// The benchmark's one fixed topology (README.md "Topology"): every
// process is a real cmd/blobnode on loopback TCP.
const (
	numStorage   = 3 // provider,metadata nodes, each on its own diskstore
	readyTimeout = 20 * time.Second
)

// cleanups runs registered teardown steps exactly once, newest first,
// whichever of normal return, panic or signal gets there first.
type cleanups struct {
	mu    sync.Mutex
	steps []func()
}

func (c *cleanups) add(f func()) {
	c.mu.Lock()
	c.steps = append(c.steps, f)
	c.mu.Unlock()
}

func (c *cleanups) run() {
	c.mu.Lock()
	steps := c.steps
	c.steps = nil
	c.mu.Unlock()
	for i := len(steps) - 1; i >= 0; i-- {
		steps[i]()
	}
}

// buildBlobnode compiles cmd/blobnode from the checkout at root into
// binDir and returns the binary's path. The build is outside setup_s.
func buildBlobnode(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "blobnode")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/blobnode")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/blobnode: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddrs reserves n distinct loopback addresses by listening on :0,
// holding every listener until all are drawn so no port repeats.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("loopback TCP unavailable: %w", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// node is one running blobnode child.
type node struct {
	role  string // "pmanager", "vmanager" or "provider"
	addr  string
	admin string // admin HTTP address, traced runs only
	cmd   *exec.Cmd
	log   *os.File
	done  chan struct{} // closed once the child has been waited for
}

// topology is one booted deployment plus the directories it owns.
type topology struct {
	mu      sync.Mutex // stop may race a signal-driven teardown
	nodes   []*node
	pm, vm  string
	dataDir string
}

// startNode starts one blobnode child listening on addr, its output in
// a log file of its own.
func (t *topology) startNode(bin, logDir, role, addr, admin string, args ...string) error {
	logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("%s-%d.log", role, len(t.nodes))))
	if err != nil {
		return err
	}
	full := append([]string{"-listen", addr, "-advertise", addr}, args...)
	if admin != "" {
		full = append(full, "-admin", admin)
	}
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with this process even when it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", role, err)
	}
	n := &node{role: role, addr: addr, admin: admin, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // "signal: killed" is the expected outcome
		close(n.done)
	}()
	t.nodes = append(t.nodes, n)
	return nil
}

// stop kills every child, waits for each, and removes the data dirs.
func (t *topology) stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.nodes {
		_ = n.cmd.Process.Kill() // already-exited children report an error we do not need
	}
	for _, n := range t.nodes {
		<-n.done
		n.log.Close()
	}
	t.nodes = nil
	os.RemoveAll(t.dataDir)
}

// waitDial polls addr until something accepts there.
func waitDial(ctx context.Context, addr string) error {
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never accepted: %w", addr, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// boot starts the fixed topology under runDir (logs in runDir, data in
// runDir/data) and returns once a client sees all of it: 3 providers in
// AllProviders, 3 dht members, and a version-manager leader. admin
// turns on each node's -admin plane (traced runs only).
func boot(ctx context.Context, bin, runDir string, admin bool) (*topology, error) {
	t := &topology{dataDir: filepath.Join(runDir, "data")}
	if err := os.MkdirAll(t.dataDir, 0o755); err != nil {
		return nil, err
	}
	n := 2 + numStorage
	addrs, err := freeAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	adminOf := func(i int) string {
		if admin {
			return addrs[n+i]
		}
		return ""
	}
	t.pm, t.vm = addrs[0], addrs[1]
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()

	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	if err := t.startNode(bin, runDir, "pmanager", t.pm, adminOf(0), "-roles", "pmanager"); err != nil {
		return nil, err
	}
	// Every other role registers with the pmanager at start-up and
	// exits if it is not there yet.
	if err := waitDial(ctx, t.pm); err != nil {
		return nil, err
	}
	// The version manager is a 1x1 replica group: the deployment mode
	// ROADMAP item 5 keeps.
	if err := t.startNode(bin, runDir, "vmanager", t.vm, adminOf(1), "-roles", "vmanager", "-pm", t.pm,
		"-vshards", "1", "-vshard", "0", "-vreplica", "0", "-vpeers", t.vm); err != nil {
		return nil, err
	}
	for i := 0; i < numStorage; i++ {
		// Flush policy: diskstore defaults — 4 MiB segments, no fsync
		// per append (-sync-writes off), no RAM cache (-disk-cache 0).
		if err := t.startNode(bin, runDir, "provider", addrs[2+i], adminOf(2+i), "-roles", "provider,metadata", "-pm", t.pm,
			"-data-dir", filepath.Join(t.dataDir, fmt.Sprintf("p%d", i))); err != nil {
			return nil, err
		}
	}

	for {
		err := t.ready(ctx)
		if err == nil {
			break
		}
		for _, nd := range t.nodes {
			select {
			case <-nd.done:
				return nil, fmt.Errorf("%s exited during boot, see %s", nd.role, nd.log.Name())
			default:
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("topology not ready after %v: %w", readyTimeout, err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	ok = true
	return t, nil
}

// ready reports nil once a fresh client sees the whole topology.
func (t *topology) ready(ctx context.Context) error {
	c, err := t.client(ctx, core.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	provs, err := c.AllProviders(ctx)
	if err != nil {
		return err
	}
	if len(provs) != numStorage {
		return fmt.Errorf("%d of %d providers registered", len(provs), numStorage)
	}
	members, err := c.Meta().StoreStats(ctx)
	if err != nil {
		return err
	}
	if len(members) != numStorage {
		return fmt.Errorf("%d of %d dht members", len(members), numStorage)
	}
	_, err = c.VersionManager().Blobs(ctx)
	return err
}

// client connects one core.Client to the topology; o carries only the
// fields a workload overrides.
func (t *topology) client(ctx context.Context, o core.Options) (*core.Client, error) {
	o.Network = rpc.TCP{}
	o.VManagerShards = [][]string{{t.vm}}
	o.PManagerAddr = t.pm
	o.MetaDirAddr = t.pm
	return core.NewClient(ctx, o)
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTick = 100 // USER_HZ; fixed at 100 on every Linux ABI Go supports
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS returns a process's peak resident set in bytes (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuByRole sums CPU time per node role, plus "loadgen" for this process.
func (t *topology) cpuByRole() (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	self, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	out["loadgen"] = self
	for _, n := range t.nodes {
		d, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[n.role] += d
	}
	return out, nil
}

// peakRSS is the largest peak resident set among the blobnode children.
func (t *topology) peakRSS() (int64, error) {
	var max int64
	for _, n := range t.nodes {
		r, err := procPeakRSS(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		if r > max {
			max = r
		}
	}
	return max, nil
}

// providerStats sums, over every provider's MStats, the pages served
// and the segment-file bytes on disk.
func providerStats(ctx context.Context, c *core.Client) (gets, diskBytes int64, err error) {
	provs, err := c.AllProviders(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range provs {
		resp, err := c.Pool().Call(ctx, p.Addr, provider.MStats, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("provider %d stats: %w", p.ID, err)
		}
		st, err := provider.DecodeStats(resp)
		if err != nil {
			return 0, 0, err
		}
		gets += st.Gets
		diskBytes += st.DiskBytes
	}
	return gets, diskBytes, nil
}

// handlerTotals is the sum and count of rpc_handler_seconds per method
// name, added over every node's /metrics.
type handlerTotals map[string]struct {
	sum   float64
	count int64
}

// scrapeHandlers reads rpc_handler_seconds_{sum,count} from each node's
// admin plane. It returns an empty map when the nodes run without -admin.
func (t *topology) scrapeHandlers(ctx context.Context) (handlerTotals, error) {
	out := make(handlerTotals)
	for _, n := range t.nodes {
		if n.admin == "" {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.admin+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.role, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			for _, kind := range []string{"sum", "count"} {
				rest, ok := strings.CutPrefix(line, "rpc_handler_seconds_"+kind+`{method="`)
				if !ok {
					continue
				}
				method, val, ok := strings.Cut(rest, `"} `)
				if !ok {
					continue
				}
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					continue
				}
				e := out[method]
				if kind == "sum" {
					e.sum += v
				} else {
					e.count += int64(v)
				}
				out[method] = e
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
