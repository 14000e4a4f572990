// Command benchmark is the repository's one end-to-end benchmark: it
// boots a fixed topology of real blobnode processes on loopback TCP,
// drives one of four survey workloads through core.Client from this
// process, verifies every byte it reads, and prints end-to-end metrics
// (-trace 0) or a per-layer budget (-trace 1). README.md documents the
// workloads, the metrics and how they should move together.
//
//	sh benchmark/run.sh --workload cutout-read --seed 1 --seconds 10 --trace 0
//	sh benchmark/run.sh -runs 5 -out A.json        # every workload, both modes
//	sh benchmark/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a run boots and preloads the topology; the
// reported setup_s is their median and the load runs on the last.
const setups = 3

// runTimeout ends a run that hangs before the driver's 180 s limit does.
const runTimeout = 170 * time.Second

type config struct {
	root    string // checkout root (holds go.mod and cmd/blobnode)
	outDir  string // logs, traces and data dirs; everything in it is disposable
	seconds int
	stdout  io.Writer
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (empty with -out: all of them)")
		seed         = flag.Uint64("seed", 1, "drives offsets and content, nothing else")
		seconds      = flag.Int("seconds", 10, "measured window in seconds (-window is the same flag)")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics and budget table")
		out          = flag.String("out", "", "run -runs sets of every workload in both modes and write them to this file")
		runs         = flag.Int("runs", 1, "with -out: runs per workload and mode, seeds seed, seed+1, ...")
		compare      = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
		root         = flag.String("root", "..", "checkout root (holds go.mod and cmd/blobnode); run.sh passes it")
	)
	flag.IntVar(seconds, "window", 10, "alias of -seconds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	cfg := config{root: absRoot, outDir: filepath.Join(absRoot, "benchmark", "out"), seconds: *seconds, stdout: os.Stdout}
	if cfg.seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}

	// Teardown runs once on return, on panic and on SIGINT/SIGTERM: every
	// child killed and waited for, every data dir removed.
	var cl cleanups
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout*time.Duration(max(1, *runs*8)))
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cl.run()
		os.Exit(130)
	}()
	code := 0
	func() {
		defer cl.run()
		var err error
		if *out != "" {
			err = runSets(ctx, cfg, &cl, *workloadName, *seed, *runs, *out)
		} else {
			err = runSingle(ctx, cfg, &cl, *workloadName, *seed, *traced != 0)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printHeader records what the numbers below it were measured on.
func printHeader(cfg config, w *workload, seed uint64, traced bool) {
	commit := "unknown" // the driver's checkout is not a git repository
	git := exec.Command("git", "-C", cfg.root, "rev-parse", "--short", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cfg.root)) // never a repository above the checkout
	if b, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	loop := fmt.Sprintf("closed loop, %d clients", numClients)
	if w.open() {
		loop = fmt.Sprintf("open loop, %.0f reads/s + %.0f writes/s", w.readRate, w.writeRate)
	}
	fmt.Fprintf(cfg.stdout, "# benchmark %s: seed=%d commit=%s nproc=%d go=%s window=%ds warmup=%s trace=%v\n",
		w.Name, seed, commit, runtime.NumCPU(), runtime.Version(), cfg.seconds, warmup(cfg.seconds), traced)
	fmt.Fprintf(cfg.stdout, "# %s; blob %d MiB, op %d KiB, page %d KiB; 1 pmanager + 1x1 vmanager + %d provider,metadata on diskstore (4 MiB segments, no fsync per append, no RAM cache)\n",
		loop, w.blobBytes/mib, w.opBytes/kib, w.pageSize/kib, numStorage)
}

// warmup is a fifth of the window: ISSUE 11's 5 s + 30 s shape, shrunk
// with the window.
func warmup(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 5
}

// runSingle runs one workload once and prints its result as the last
// line of standard output.
func runSingle(ctx context.Context, cfg config, cl *cleanups, name string, seed uint64, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown -workload %q (have %s)", name, strings.Join(names, ", "))
	}
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	res, err := runWorkload(ctx, cfg, cl, w, seed, traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(cfg.stdout, "%s\n", line)
	return err
}

// runWorkload is one run: build, timed set-ups, load, verification,
// teardown, and for traced runs the probes and the budget table.
func runWorkload(ctx context.Context, cfg config, cl *cleanups, w *workload, seed uint64, traced bool) (*result, error) {
	printHeader(cfg, w, seed, traced)
	bin, err := buildBlobnode(cfg.root, filepath.Join(cfg.outDir, "bin"))
	if err != nil {
		return nil, err
	}
	// After the build, which may use every CPU.
	fmt.Fprintf(cfg.stdout, "# placement: %s\n", pinToOneCPU())
	runDir := filepath.Join(cfg.outDir, w.Name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	cl.add(func() { os.RemoveAll(filepath.Join(runDir, "data")) })

	epoch := time.Now()
	var setupTimes []time.Duration
	var topo *topology
	var r *run
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			topo.stop()
		}
		t0 := time.Now()
		topo, err = boot(ctx, bin, runDir, traced)
		if err != nil {
			return nil, err
		}
		cl.add(topo.stop)
		if r, err = newRun(ctx, w, seed, topo, epoch); err != nil {
			return nil, err
		}
		if err := w.preload(ctx, r); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if err := r.pin(ctx); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}
	defer r.close()

	window := time.Duration(cfg.seconds) * time.Second
	r.steps = []step{{dur: warmup(cfg.seconds)}, {dur: window, counted: true}}
	if traced {
		r.steps = []step{{dur: warmup(cfg.seconds)},
			{dur: window / 4, counted: true}, {dur: window / 2, traced: true}, {dur: window / 4, counted: true}}
	}
	if err := r.drive(ctx, traced); err != nil {
		return nil, err
	}

	res := &result{}
	for _, c := range r.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s client %d: first failure: %v\n", w.Name, c.idx, c.firstErr)
		}
	}
	va, vf, verr := r.verifyWrites(ctx)
	res.Attempted += va
	res.Failed += vf
	if verr != nil {
		if vf == 0 {
			return nil, verr
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, verr)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	end, err := r.finalStats(ctx)
	if err != nil {
		return nil, err
	}
	r.close()
	topo.stop()

	if !traced {
		res.Metrics = r.endToEndMetrics(cfg.stdout, setupTimes, end)
		return res, nil
	}
	pr, err := runProbes(ctx, w, filepath.Join(runDir, "probe"))
	if err != nil {
		return nil, err
	}
	var spans []span
	for _, c := range r.clients {
		spans = append(spans, c.log.spans...)
	}
	tracePath := filepath.Join(cfg.outDir, w.Name+".trace.jsonl")
	if err := writeSpans(tracePath, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.stdout, "trace: %d spans in %s\n", len(spans), tracePath)
	res.Metrics = r.perLayerMetrics(cfg.stdout, spans, end, pr)
	return res, nil
}
