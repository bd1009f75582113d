// Command e2ebench is the repository's end-to-end benchmark. It drives
// four workloads through the entry points users reach — gtw.RunAll as
// cmd/gtwrun runs it, and dist.Client.Submit + WaitStream against an
// in-process coordinator and worker as `gtwrun -connect` runs it — and
// prints every end-to-end metric with its unit, the operations
// attempted and failed, and whether every output check passed.
//
// Usage, from the root of a checkout:
//
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh --repeat R --seconds S [--workload NAME]
//
// With --trace 0 the last line of standard output is one JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced run instead. --repeat runs every
// workload R times in fresh processes, alternating between workloads,
// and prints the median and quartiles of every end-to-end metric. See
// README.md for the workloads, the metrics and the measured spreads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fresh processes each untraced run sets the
// workload up in; setup_s is their median. All but the last exit right
// after set-up; the last goes on to the timed passes.
const setupSamples = 5

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childResult is what a workload process reports to the launcher.
type childResult struct {
	SetupS    float64           `json:"setup_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int

	// Internal: set by the launcher on the processes it starts.
	child string // "", "measure", "setup", "trace" or "prepare"
	t0    int64  // launcher's clock just before starting this process, unix ns
	data  string // this process's data directory (remote-jobs)
}

func parse(args []string) (options, error) {
	var o options
	f := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	f.StringVar(&o.root, "root", ".", "root of the checkout; scratch files go to its .bench_build/")
	f.StringVar(&o.workload, "workload", "", "workload to run: testbed-serial, testbed-pdes, coupled-apps or remote-jobs")
	f.Uint64Var(&o.seed, "seed", 1, "seed of the fresh -pes sequence of remote-jobs (the only seeded input)")
	f.IntVar(&o.seconds, "seconds", 20, "how long the timed passes run")
	f.IntVar(&o.trace, "trace", 0, "1: a traced run that prints the per-layer metrics")
	f.IntVar(&o.repeat, "repeat", 0, "run every workload this many times in fresh processes and print medians and quartiles")
	f.StringVar(&o.child, "child", "", "internal: the role of a process the launcher started")
	f.Int64Var(&o.t0, "t0", 0, "internal: start time of this process, unix ns")
	f.StringVar(&o.data, "data", "", "internal: this process's data directory")
	if err := f.Parse(args); err != nil {
		return o, err
	}
	if f.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", f.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.repeat == 0 && o.child != "prepare" {
		if _, ok := lookupWorkload(o.workload); !ok {
			return o, fmt.Errorf("unknown --workload %q (want %s)", o.workload, workloadNames())
		}
	}
	return o, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout io.Writer) int {
	o, err := parse(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		logf("%v", err)
		return 2
	}
	// One busy thread per CPU, whatever the environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()

	var res any
	switch o.child {
	case "":
		if o.repeat > 0 {
			err = repeat(ctx, o, stdout)
			break
		}
		res, err = launch(ctx, o)
	case "prepare":
		err = prepareData(ctx, o.data)
	case "setup", "measure":
		res, err = measure(ctx, o)
	case "trace":
		res, err = traced(ctx, o)
	default:
		err = fmt.Errorf("unknown -child %q", o.child)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	if res != nil {
		b, err := json.Marshal(res)
		if err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	return 0
}

// launch runs one workload: set-up samples in fresh processes, then one
// process for the timed passes (or the traced run), and prints the
// result.
func launch(ctx context.Context, o options) (*result, error) {
	// Every run must end within 180 s; no child may outlive it.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds)*time.Second+150*time.Second)
	defer cancel()
	spec, _ := lookupWorkload(o.workload)
	work, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	seedData := ""
	if spec.name == "remote-jobs" {
		seedData = filepath.Join(work, "seed-data")
		if _, err := startChild(ctx, o, "prepare", seedData); err != nil {
			return nil, fmt.Errorf("prebuilding the data directory: %w", err)
		}
	}
	// dataCopy gives each process a fresh copy of the prebuilt data
	// directory (its journal grows as the process runs jobs).
	n := 0
	dataCopy := func() (string, error) {
		if seedData == "" {
			return "", nil
		}
		n++
		dst := filepath.Join(work, fmt.Sprintf("data-%d", n))
		return dst, copyDir(seedData, dst)
	}

	if o.trace == 1 {
		data, err := dataCopy()
		if err != nil {
			return nil, err
		}
		cr, err := startChild(ctx, o, "trace", data)
		if err != nil {
			return nil, err
		}
		return &result{Correct: cr.Correct, Attempted: cr.Attempted, Failed: cr.Failed, Metrics: cr.Metrics}, nil
	}

	var setups []float64
	var cr *childResult
	for i := 0; i < setupSamples; i++ {
		data, err := dataCopy()
		if err != nil {
			return nil, err
		}
		role := "setup"
		if i == setupSamples-1 {
			role = "measure"
		}
		if cr, err = startChild(ctx, o, role, data); err != nil {
			return nil, err
		}
		setups = append(setups, cr.SetupS)
	}
	cr.Metrics["setup_s"] = metric{median(setups), "s"}
	logf("%s: setup_s samples %v", spec.name, setups)
	printTable(os.Stderr, spec.name, cr)
	return &result{Correct: cr.Correct, Attempted: cr.Attempted, Failed: cr.Failed, Metrics: cr.Metrics}, nil
}

// startChild runs this binary as a fresh process in the given role and
// returns the result it prints.
func startChild(ctx context.Context, o options, role, data string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-root", o.root, "-child", role, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-data", data,
	}
	var out strings.Builder
	// The process's set-up clock starts here.
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	if role == "prepare" {
		return nil, nil
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var cr childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
		return nil, fmt.Errorf("%s process printed no result: %w", role, err)
	}
	return &cr, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// measure is one workload process: set-up, then (unless it is a set-up
// sample) closed-loop timed passes for the run's length.
func measure(ctx context.Context, o options) (*childResult, error) {
	spec, _ := lookupWorkload(o.workload)
	e := env{spec: spec, seed: o.seed, data: o.data}
	w, err := spec.start(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	warm, werr := w.warmUp(ctx)
	setup := time.Since(time.Unix(0, o.t0)).Seconds()
	if werr != nil {
		return nil, fmt.Errorf("warm-up pass: %w", werr)
	}
	if o.child == "setup" {
		return &childResult{SetupS: setup, Correct: true}, nil
	}

	if err := w.prepareChecks(ctx); err != nil {
		return nil, err
	}
	cr := &childResult{SetupS: setup, Correct: true}
	if err := w.check(ctx, warm); err != nil {
		logf("%s: warm-up pass failed its checks: %v", spec.name, err)
		cr.Correct = false
	}

	var durs []float64 // ms, passes that succeeded
	var wall, cpu time.Duration
	var alloc uint64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		c0, a0 := cpuTime(), heapAllocBytes()
		t := time.Now()
		out, err := w.pass(ctx, i)
		d := time.Since(t)
		cpu += cpuTime() - c0
		alloc += heapAllocBytes() - a0
		wall += d
		cr.Attempted++
		if err == nil {
			err = w.check(ctx, out)
		}
		if err != nil {
			cr.Failed++
			logf("%s: pass %d failed: %v", spec.name, i, err)
			continue
		}
		durs = append(durs, float64(d)/float64(time.Millisecond))
	}
	cr.Metrics = endToEnd(durs, cr.Attempted, wall, cpu, alloc)
	if pct, v, ok := tail(durs); ok {
		logf("%s: p%.1f pass time %.3f ms over %d passes", spec.name, pct, v, len(durs))
	} else {
		logf("%s: %d passes, too few for a tail percentile", spec.name, len(durs))
	}
	return cr, nil
}

// endToEnd computes the end-to-end metrics of the timed passes, all but
// setup_s, which the launcher adds: durs holds the wall times (ms) of
// the passes that succeeded, wall, cpu and alloc the totals over all
// attempted passes.
func endToEnd(durs []float64, attempted int, wall, cpu time.Duration, alloc uint64) map[string]metric {
	ops := float64(attempted)
	return map[string]metric{
		"ops_per_s":       {float64(len(durs)) / wall.Seconds(), "1/s"},
		"op_p50_ms":       {median(durs), "ms"},
		"cpu_ms_per_op":   {float64(cpu) / float64(time.Millisecond) / ops, "ms"},
		"alloc_mb_per_op": {float64(alloc) / (1 << 20) / ops, "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// printTable writes a run's metrics in a readable form.
func printTable(w io.Writer, name string, cr *childResult) {
	fmt.Fprintf(w, "%s: %d passes attempted, %d failed, checks passed: %v\n", name, cr.Attempted, cr.Failed, cr.Correct)
	for _, k := range sortedKeys(cr.Metrics) {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", k, cr.Metrics[k].Value, cr.Metrics[k].Unit)
	}
}
