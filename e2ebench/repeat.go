package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// repeat runs every workload (or the one named) o.repeat times, each
// run a fresh launcher process with its own seed, alternating between
// workloads, and prints the median, quartiles and quartile spread of
// every end-to-end metric: the evidence behind the bounds in
// BENCHMARK.json.
func repeat(ctx context.Context, o options, stdout io.Writer) error {
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := lookupWorkload(o.workload); !ok {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> per-run values
	failShare := map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < o.repeat; r++ {
		for _, name := range names {
			seed := o.seed + uint64(r)
			cctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds)*time.Second+170*time.Second)
			cmd := exec.CommandContext(cctx, exe, "-root", o.root, "--workload", name,
				"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(o.seconds), "--trace", "0")
			cmd.Stderr = io.Discard
			out, err := cmd.Output()
			cancel()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: a check failed", name, seed)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
				units[k] = m.Unit
			}
			failShare[name] = append(failShare[name], float64(res.Failed)/float64(res.Attempted))
			logf("repeat %d/%d %s seed %d: %d attempted, %d failed", r+1, o.repeat, name, seed, res.Attempted, res.Failed)
		}
	}
	fmt.Fprintf(stdout, "%-15s %-16s %12s %12s %12s %8s  (%d runs, %d s each)\n",
		"workload", "metric", "median", "q1", "q3", "spread", o.repeat, o.seconds)
	for _, name := range names {
		for _, k := range sortedKeys(values[name]) {
			xs := values[name][k]
			q1, q3 := quartiles(xs)
			fmt.Fprintf(stdout, "%-15s %-16s %12.4f %12.4f %12.4f %7.2f%%  %s\n",
				name, k, median(xs), q1, q3, 100*spread(xs), units[k])
		}
		fmt.Fprintf(stdout, "%-15s %-16s %v\n", name, "failed share", failShare[name])
	}
	// The per-run values, for checking the summary by other means.
	b, err := json.Marshal(values)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
