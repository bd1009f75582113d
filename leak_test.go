package gtw

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestScenariosLeaveNoGoroutines runs every registered scenario on one
// kernel and on two PDES kernels with intra-site cuts, and checks that
// the goroutine count returns to where it was. A simulation process
// parked on a message that never comes, or a PDES worker nobody
// released, keeps its whole testbed alive for the life of the process:
// a long-running coordinator or worker would grow with every job.
func TestScenariosLeaveNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	type leakCase struct {
		name, scenario string
		opts           []Option
	}
	var cases []leakCase
	for _, s := range Scenarios() {
		cases = append(cases,
			leakCase{s.Name() + "/kernels=1", s.Name(), nil},
			leakCase{s.Name() + "/kernels=2-intra", s.Name(), []Option{WithKernels(2), WithIntra()}})
	}
	// fmri-dataflow skips frames when it falls behind the scanner, which
	// it does at these PE counts; its analysis chain must still finish.
	for _, pes := range []int{32, 5632} {
		cases = append(cases, leakCase{fmt.Sprintf("fmri-dataflow/pes=%d", pes), "fmri-dataflow", []Option{WithPEs(pes)}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if _, err := Run(context.Background(), c.scenario, c.opts...); err != nil {
				t.Fatal(err)
			}
			// Goroutines that are already on their way out get a moment
			// to finish.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(5 * time.Millisecond)
			}
			if n > before {
				t.Errorf("%d goroutine(s) still running after the scenario returned", n-before)
			}
		})
	}
}
