package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	gtw "repro"
)

// The output checks. Each compares a report with a computation made
// apart from the program (a line rate from SONET arithmetic, a byte
// count from the exchanged array sizes, a reference run of the same
// scenario) or with a property the method must have. None compares with
// a stored copy of today's output.

// Carrier rates in Mbit/s, computed here from their definitions rather
// than taken from the program.
const (
	oc1LineMbps = 51.84 // SONET STS-1 line rate
	hippiMbps   = 800.0 // HiPPI-800 channel
)

// ocLineMbps is the gross line rate of SONET level OC-n.
func ocLineMbps(n int) float64 { return float64(n) * oc1LineMbps }

// Scenario parameters as the paper's experiments define them; the
// checks recompute byte counts from these.
const (
	fsiFluidNodes, fsiStructNodes, fsiSteps = 65, 41, 2500
	climateSteps                            = 48
	climateOceanCells                       = 64 * 128 // 64 x 128 ocean grid
	climateAtmosCells                       = 32 * 64  // 32 x 64 atmosphere grid
	groundwaterSteps, groundwaterParticles  = 6, 500
	megBoundMM                              = 1e-9 // float rounding on millimetre distances
)

// sameReport checks that a report is byte-identical, in Text and JSON,
// to a reference run of the same scenario.
func sameReport(gotText string, gotJSON []byte, ref gtw.Report) error {
	refJSON, err := ref.JSON()
	if err != nil {
		return fmt.Errorf("reference JSON: %w", err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		return fmt.Errorf("JSON differs from the reference run (%d vs %d bytes)", len(gotJSON), len(refJSON))
	}
	if gotText != ref.Text() {
		return fmt.Errorf("Text differs from the reference run")
	}
	return nil
}

// scenarioCheck is the property check of one scenario's report JSON.
type scenarioCheck func(js []byte, refs *references) error

// references holds reference outputs some property checks need.
type references struct {
	// dataflow256 is fmri-dataflow's report JSON at 256 PEs.
	dataflow256 []byte
}

// propertyChecks maps a scenario to the property its report must have.
// Scenarios without an entry are checked only for a returned error and,
// where the workload has one, against their reference run.
var propertyChecks = map[string]scenarioCheck{
	"figure1-throughput":  checkFigure1,
	"backbone-aggregate":  checkAggregate,
	"mixed-traffic":       checkMixed,
	"video-d1":            checkVideo,
	"fmri-pe-sweep":       checkPESweep,
	"fsi-cocolib":         checkFSI,
	"climate-coupled":     checkClimate,
	"meg-music":           checkMEG,
	"groundwater-coupled": checkGroundwater,
}

// checkProperty runs the scenario's property check, if it has one.
func checkProperty(name string, js []byte, refs *references) error {
	if c := propertyChecks[name]; c != nil {
		if err := c(js, refs); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func decode(js []byte, v any) error {
	if err := json.Unmarshal(js, v); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	return nil
}

// checkFigure1: no probe exceeds its carrier's line rate, and the two
// rows the paper gives lower bounds for ("> 430", "> 260" Mbit/s) meet
// them.
func checkFigure1(js []byte, _ *references) error {
	var r gtw.Figure1Report
	if err := decode(js, &r); err != nil {
		return err
	}
	bounds := map[[2]string]float64{
		{gtw.HostT3E600, gtw.HostT3E1200}: 430,
		{gtw.HostT3E600, gtw.HostSP2}:     260,
	}
	met := 0
	for _, row := range r.Rows {
		line := ocLineMbps(12) // every WAN host attaches at 622 Mbit/s or less
		switch {
		case row.Src == "" && strings.Contains(row.Path, "OC-48"):
			line = ocLineMbps(48)
		case row.Src == "" && strings.Contains(row.Path, "OC-12"):
			line = ocLineMbps(12)
		case isCray(row.Src) && isCray(row.Dst):
			line = hippiMbps
		}
		if !(row.Mbps > 0) || row.Mbps > line {
			return fmt.Errorf("row %q: %.3f Mbit/s outside (0, %.2f] line rate", row.Path, row.Mbps, line)
		}
		if lb, ok := bounds[[2]string{row.Src, row.Dst}]; ok {
			if !(row.Mbps > lb) {
				return fmt.Errorf("row %q: %.3f Mbit/s, paper says > %.0f", row.Path, row.Mbps, lb)
			}
			met++
		}
	}
	if met != len(bounds) {
		return fmt.Errorf("%d of the %d paper-bounded rows present", met, len(bounds))
	}
	return nil
}

// isCray reports a host of the local Cray complex, joined by HiPPI.
func isCray(h string) bool {
	return h == gtw.HostT3E600 || h == gtw.HostT3E1200 || h == gtw.HostT90
}

// checkAggregate: each aggregate equals the sum of its per-flow rates
// within float rounding, and neither exceeds its carrier's line rate.
func checkAggregate(js []byte, _ *references) error {
	var r gtw.UpgradeReport
	if err := decode(js, &r); err != nil {
		return err
	}
	if len(r.Aggregate) != 2 {
		return fmt.Errorf("%d aggregate rows, want one per backbone generation (2)", len(r.Aggregate))
	}
	for _, row := range r.Aggregate {
		if len(row.PerFlowMbps) != row.Flows {
			return fmt.Errorf("%v: %d per-flow rates for %d flows", row.Backbone, len(row.PerFlowMbps), row.Flows)
		}
		sum := 0.0
		for _, f := range row.PerFlowMbps {
			if !(f > 0) || f > ocLineMbps(12) {
				return fmt.Errorf("%v: flow at %.3f Mbit/s outside (0, %.2f] attach line rate", row.Backbone, f, ocLineMbps(12))
			}
			sum += f
		}
		if math.Abs(sum-row.AggregateMbps) > 1e-9*math.Max(1, sum) {
			return fmt.Errorf("%v: aggregate %.12g != sum of flows %.12g", row.Backbone, row.AggregateMbps, sum)
		}
		if row.AggregateMbps > ocLineMbps(int(row.Backbone)) {
			return fmt.Errorf("%v: aggregate %.3f Mbit/s above the line rate", row.Backbone, row.AggregateMbps)
		}
	}
	return nil
}

// checkMixed: every video frame is on time or late, and the bulk flow
// stays under the backbone's line rate.
func checkMixed(js []byte, _ *references) error {
	var r gtw.UpgradeReport
	if err := decode(js, &r); err != nil {
		return err
	}
	if len(r.Mixed) != 2 {
		return fmt.Errorf("%d mixed rows, want one per backbone generation (2)", len(r.Mixed))
	}
	for _, m := range r.Mixed {
		v := m.Video
		if v.Frames <= 0 || v.OnTime+v.Late != v.Frames {
			return fmt.Errorf("%v: OnTime %d + Late %d != Frames %d", m.Backbone, v.OnTime, v.Late, v.Frames)
		}
		if !(m.BulkMbps > 0) || m.BulkMbps > ocLineMbps(int(m.Backbone)) {
			return fmt.Errorf("%v: bulk %.3f Mbit/s outside (0, line rate]", m.Backbone, m.BulkMbps)
		}
	}
	return nil
}

// checkVideo: no stream's payload exceeds its carrier's line rate and
// no more frames arrive on time than were sent.
func checkVideo(js []byte, _ *references) error {
	var r gtw.VideoReport
	if err := decode(js, &r); err != nil {
		return err
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("no carrier rows")
	}
	for _, row := range r.Rows {
		n, err := strconv.Atoi(strings.TrimPrefix(row.Carrier, "OC-"))
		if err != nil {
			return fmt.Errorf("carrier %q is not an OC level", row.Carrier)
		}
		if !(row.PayloadMbps > 0) || row.PayloadMbps > ocLineMbps(n) {
			return fmt.Errorf("%s: payload %.3f Mbit/s outside (0, %.2f]", row.Carrier, row.PayloadMbps, ocLineMbps(n))
		}
		if row.OnTime < 0 || row.OnTime > row.Frames {
			return fmt.Errorf("%s: %d of %d frames on time", row.Carrier, row.OnTime, row.Frames)
		}
	}
	return nil
}

// checkPESweep: the sweep's 256-PE row equals fmri-dataflow run at 256
// PEs on its own.
func checkPESweep(js []byte, refs *references) error {
	var r gtw.FMRISweepReport
	if err := decode(js, &r); err != nil {
		return err
	}
	if refs == nil || refs.dataflow256 == nil {
		return fmt.Errorf("no fmri-dataflow reference at 256 PEs")
	}
	for _, row := range r.Rows {
		if row.Scenario.PEs != 256 {
			continue
		}
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, refs.dataflow256) {
			return fmt.Errorf("256-PE row differs from fmri-dataflow at 256 PEs")
		}
		return nil
	}
	return fmt.Errorf("no 256-PE row")
}

// checkFSI: the coupler exchanged steps x (fluid + structure nodes)
// float64 values.
func checkFSI(js []byte, _ *references) error {
	var r gtw.FSIReport
	if err := decode(js, &r); err != nil {
		return err
	}
	want := int64(fsiSteps * (fsiFluidNodes + fsiStructNodes) * 8)
	if r.Result.Steps != fsiSteps || r.Result.BytesExchanged != want {
		return fmt.Errorf("%d steps, %d bytes exchanged; want %d steps, %d bytes",
			r.Result.Steps, r.Result.BytesExchanged, fsiSteps, want)
	}
	return nil
}

// climateBytesPerExchange is the coupler's inbound payload per step:
// SST and ice on the ocean grid plus heat flux and two stress fields on
// the atmosphere grid, as float64.
const climateBytesPerExchange = 8 * (2*climateOceanCells + 3*climateAtmosCells)

// checkClimate: bytes per exchange follow from the two grid sizes.
func checkClimate(js []byte, _ *references) error {
	var r gtw.ClimateReport
	if err := decode(js, &r); err != nil {
		return err
	}
	if r.Result.Steps != climateSteps || r.Result.BytesPerExchange != climateBytesPerExchange {
		return fmt.Errorf("%d steps, %d bytes per exchange; want %d steps, %d bytes",
			r.Result.Steps, r.Result.BytesPerExchange, climateSteps, climateBytesPerExchange)
	}
	return nil
}

// checkMEG: the reported localisation error is the distance between the
// estimated and the true dipole.
func checkMEG(js []byte, _ *references) error {
	var r gtw.MEGReport
	if err := decode(js, &r); err != nil {
		return err
	}
	d := math.Hypot(math.Hypot(r.BestMM[0]-r.TrueMM[0], r.BestMM[1]-r.TrueMM[1]), r.BestMM[2]-r.TrueMM[2])
	if math.Abs(d-r.ErrorMM) > megBoundMM*math.Max(1, d) {
		return fmt.Errorf("ErrorMM %.12g != |BestMM - TrueMM| = %.12g", r.ErrorMM, d)
	}
	return nil
}

// checkGroundwater: the coupling moved one field per step and no more
// particles left the domain than were injected. The VAMPIR trace text
// is left out: it is measured on the wall clock, so it differs from run
// to run (a known fault of the program).
func checkGroundwater(js []byte, _ *references) error {
	var r gtw.GroundwaterReport
	if err := decode(js, &r); err != nil {
		return err
	}
	res := r.Result
	if res.Steps != groundwaterSteps || res.BytesPerStep <= 0 || res.TotalBytes != int64(res.Steps)*int64(res.BytesPerStep) {
		return fmt.Errorf("%d steps x %d bytes != %d total bytes (want %d steps)",
			res.Steps, res.BytesPerStep, res.TotalBytes, groundwaterSteps)
	}
	if res.Exited < 0 || res.Exited > groundwaterParticles {
		return fmt.Errorf("%d of %d particles exited", res.Exited, groundwaterParticles)
	}
	return nil
}
