package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	gtw "repro"

	"repro/internal/dist"
)

// TestSmokeEveryWorkload starts every workload, runs its warm-up pass
// and two timed passes, and checks each.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			e := env{spec: spec, seed: 7}
			if spec.name == "remote-jobs" {
				e.data = t.TempDir()
				if err := prepareData(ctx, e.data); err != nil {
					t.Fatal(err)
				}
			}
			w, err := spec.start(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			warm, err := w.warmUp(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.prepareChecks(ctx); err != nil {
				t.Fatal(err)
			}
			if err := w.check(ctx, warm); err != nil {
				t.Fatalf("warm-up pass: %v", err)
			}
			for i := 0; i < 2; i++ {
				out, err := w.pass(ctx, i)
				if err != nil {
					t.Fatalf("pass %d: %v", i, err)
				}
				if err := w.check(ctx, out); err != nil {
					t.Fatalf("pass %d: %v", i, err)
				}
			}
		})
	}
}

// reports caches one real report per scenario across tests.
var reports struct {
	sync.Mutex
	m map[string]gtw.Report
}

func realReport(t *testing.T, name string, opts ...gtw.Option) gtw.Report {
	t.Helper()
	reports.Lock()
	defer reports.Unlock()
	if reports.m == nil {
		reports.m = map[string]gtw.Report{}
	}
	key := name
	if len(opts) > 0 {
		key += "+opts"
	}
	if r, ok := reports.m[key]; ok {
		return r
	}
	r, err := gtw.Run(context.Background(), name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reports.m[key] = r
	return r
}

func reportJSON(t *testing.T, r gtw.Report) []byte {
	t.Helper()
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// mutate decodes a report's JSON, applies f, and encodes it again.
func mutate(t *testing.T, js []byte, f func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(js, &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// at walks a decoded JSON value along keys (string) and indices (int).
func at(v any, path ...any) map[string]any {
	for _, p := range path {
		switch p := p.(type) {
		case string:
			v = v.(map[string]any)[p]
		case int:
			v = v.([]any)[p]
		}
	}
	return v.(map[string]any)
}

func num(v any) float64 { return v.(float64) }

// TestChecksRejectCorruptedReports shows that every property check
// passes on a real report and fails once one value in it is corrupted,
// so no check can pass vacuously.
func TestChecksRejectCorruptedReports(t *testing.T) {
	refs := &references{}
	refs.dataflow256 = reportJSON(t, realReport(t, "fmri-dataflow", gtw.WithPEs(256)))
	rowWhere := func(m map[string]any, list, key string, want any) map[string]any {
		for _, r := range m[list].([]any) {
			if r.(map[string]any)[key] == want {
				return r.(map[string]any)
			}
		}
		t.Fatalf("no %s row with %s = %v", list, key, want)
		return nil
	}
	cases := []struct {
		scenario, what string
		corrupt        func(m map[string]any)
	}{
		{"figure1-throughput", "a probe above its line rate", func(m map[string]any) {
			at(m, "Rows", 2)["Mbps"] = 700.0
		}},
		{"figure1-throughput", "the T3E -> SP2 row below the paper's 260", func(m map[string]any) {
			rowWhere(m, "Rows", "Dst", gtw.HostSP2)["Mbps"] = 255.0
		}},
		{"figure1-throughput", "a paper-bounded row missing", func(m map[string]any) {
			m["Rows"] = m["Rows"].([]any)[1:]
		}},
		{"backbone-aggregate", "an aggregate that is not the sum of its flows", func(m map[string]any) {
			flows := at(m, "Aggregate", 0)["PerFlowMbps"].([]any)
			flows[0] = num(flows[0]) + 0.5
		}},
		{"backbone-aggregate", "an aggregate above the line rate", func(m map[string]any) {
			row := at(m, "Aggregate", 0)
			flows := row["PerFlowMbps"].([]any)
			for i := range flows {
				flows[i] = 600.0
			}
			row["AggregateMbps"] = 600.0 * float64(len(flows))
			row["Backbone"] = 3.0
		}},
		{"mixed-traffic", "a frame neither on time nor late", func(m map[string]any) {
			v := at(m, "Mixed", 0, "Video")
			v["Late"] = num(v["Late"]) + 1
		}},
		{"video-d1", "a payload above its carrier's line rate", func(m map[string]any) {
			at(m, "Rows", 0)["PayloadMbps"] = 200.0 // OC-3's line rate is 155.52
		}},
		{"fmri-pe-sweep", "a 256-PE row unlike fmri-dataflow at 256 PEs", func(m map[string]any) {
			for _, r := range m["Rows"].([]any) {
				if num(at(r, "Scenario")["PEs"]) == 256 {
					res := at(r, "Result")
					res["MeanGUIDelay"] = num(res["MeanGUIDelay"]) + 0.001
				}
			}
		}},
		{"fsi-cocolib", "bytes exchanged off by one value", func(m map[string]any) {
			r := at(m, "Result")
			r["BytesExchanged"] = num(r["BytesExchanged"]) + 8
		}},
		{"climate-coupled", "bytes per exchange off by one value", func(m map[string]any) {
			r := at(m, "Result")
			r["BytesPerExchange"] = num(r["BytesPerExchange"]) + 8
		}},
		{"meg-music", "an error that is not the dipole distance", func(m map[string]any) {
			m["ErrorMM"] = num(m["ErrorMM"]) + 0.01
		}},
		{"groundwater-coupled", "total bytes unlike steps x bytes per step", func(m map[string]any) {
			r := at(m, "Result")
			r["TotalBytes"] = num(r["TotalBytes"]) + 1
		}},
		{"groundwater-coupled", "more particles exited than injected", func(m map[string]any) {
			at(m, "Result")["Exited"] = float64(groundwaterParticles + 1)
		}},
	}
	checked := map[string]bool{}
	for _, c := range cases {
		t.Run(c.scenario+"/"+c.what, func(t *testing.T) {
			js := reportJSON(t, realReport(t, c.scenario))
			if err := checkProperty(c.scenario, js, refs); err != nil {
				t.Fatalf("real report fails its check: %v", err)
			}
			bad := mutate(t, js, c.corrupt)
			if err := checkProperty(c.scenario, bad, refs); err == nil {
				t.Fatalf("check passed a report with %s", c.what)
			}
		})
		checked[c.scenario] = true
	}
	for name := range propertyChecks {
		if !checked[name] {
			t.Errorf("no corrupted-report case for %s's check", name)
		}
	}
}

// TestSameReportRejectsChanges covers the byte-identity check the
// testbed and remote workloads apply against their reference runs.
func TestSameReportRejectsChanges(t *testing.T) {
	ref := realReport(t, "backbone-aggregate")
	js := reportJSON(t, ref)
	if err := sameReport(ref.Text(), js, ref); err != nil {
		t.Fatalf("a report differs from itself: %v", err)
	}
	bad := mutate(t, js, func(m map[string]any) { at(m, "Aggregate", 1)["Flows"] = 3.0 })
	if err := sameReport(ref.Text(), bad, ref); err == nil {
		t.Fatal("changed JSON passed")
	}
	if err := sameReport(strings.Replace(ref.Text(), "OC-48", "OC-12", 1), js, ref); err == nil {
		t.Fatal("changed Text passed")
	}
}

// TestPDESCheckNeedsRounds: a testbed-pdes pass whose partition was
// never applied fails, even with correct reports.
func TestPDESCheckNeedsRounds(t *testing.T) {
	spec, _ := lookupWorkload("testbed-pdes")
	w := newInProcess(env{spec: spec}, nil, nil)
	w.pdes = true
	var out passOut
	for _, name := range spec.scenarios {
		out.results = append(out.results, gtw.RunResult{Name: name, Report: realReport(t, name)})
	}
	out.rounds = 1
	if err := w.check(context.Background(), out); err != nil {
		t.Fatalf("a pass with rounds fails: %v", err)
	}
	out.rounds = 0
	if err := w.check(context.Background(), out); err == nil {
		t.Fatal("a pass with no PDES rounds passed")
	}
}

// TestRemoteCheckRejectsWrongCachePath: a fresh job served from the
// store, or a repeated job computed afresh, fails the remote check.
func TestRemoteCheckRejectsWrongCachePath(t *testing.T) {
	ctx := context.Background()
	w := &remote{refs: map[string]gtw.Report{}}
	w.checks.dataflow256 = reportJSON(t, realReport(t, "fmri-dataflow", gtw.WithPEs(256)))
	rep := realReport(t, "fmri-pe-sweep")
	w.refs["fmri-pe-sweep"] = rep
	job := func(fresh, cached bool, hits int) passOut {
		st := &dist.JobStatus{Status: dist.JobDone, Report: reportJSON(t, rep), Text: rep.Text(),
			Cached: cached, PointHits: hits, PointsTotal: 3}
		return passOut{jobs: []jobOut{{req: dist.JobRequest{Scenario: "fmri-pe-sweep"}, fresh: fresh, st: st}}}
	}
	if err := w.check(ctx, job(false, true, 3)); err != nil {
		t.Fatalf("a cached repeated job fails: %v", err)
	}
	if err := w.check(ctx, job(false, false, 2)); err == nil {
		t.Fatal("a repeated job that was not cached passed")
	}
	if err := w.check(ctx, job(true, false, 1)); err == nil {
		t.Fatal("a fresh job with point hits passed")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4), the convention the spreads are quoted in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// TestMetricNamesMatchBenchmarkJSON: the untraced run prints exactly the
// end-to-end metrics BENCHMARK.json lists, and the traced run exactly
// its per-layer metrics, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]float64{1}, 1, time.Second, time.Second, 1)
	e2e["setup_s"] = metric{1, "s"}
	tally := &layerTally{runMS: map[string]float64{}, cpuMS: map[string]float64{}, runs: map[string]int{}}
	layers := tally.metrics(newTracer(), false, nil, nil)
	for _, c := range []struct {
		listed  []entry
		printed map[string]metric
	}{{spec.EndToEnd, e2e}, {spec.PerLayer, layers}} {
		var want, got []string
		for _, e := range c.listed {
			want = append(want, e.Name+" "+e.Unit)
		}
		for k, m := range c.printed {
			got = append(got, k+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Errorf("BENCHMARK.json lists\n%s\nthe benchmark prints\n%s", strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
}
