package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	gtw "repro"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netsim"
)

// tracer keeps spans in memory while it is on and writes them out at
// the end as Chrome trace-event JSON. It records only spans the
// benchmark opens around its own calls into the program's layers, from
// one goroutine; a span's parent is the innermost span open when it
// began. A nil or switched-off tracer records nothing.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int // ids of the spans begun and not yet ended
}

type span struct {
	id, parent int // ids are 1-based; parent 0 is the root
	name       string
	start, end time.Duration // since origin
}

func newTracer() *tracer { return &tracer{on: true, origin: time.Now()} }

// begin opens a span and returns its id (0 when nothing is recorded).
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Since(t.origin)})
	t.open = append(t.open, len(t.spans))
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.origin)
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.end - s.start
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.name] += s.end - s.start - child[s.id]
	}
	return self
}

// count is the number of spans with the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ------------------------------------------------------------ traced run

// perLayerScenarios are the scenarios with a gtw.run_ms row; the five
// coupled ones also have a gtw.cpu_ms row.
var perLayerScenarios = []string{
	"figure1-throughput", "backbone-aggregate", "mixed-traffic", "video-d1", "fmri-pe-sweep",
	"fmri-dataflow", "climate-coupled", "fsi-cocolib", "groundwater-coupled", "meg-music", "figure4-workbench",
}

// unmeasured names the counters this run cannot reach from outside the
// program, and why.
var unmeasured = []string{
	"tcpsim segments: tcpsim exports no counter; a transfer reports only its result",
	"sim events and netsim bytes of the NoShardTestbed sweeps (backbone-aggregate, mixed-traffic, fmri-pe-sweep) and of video-d1 and fmri-dataflow: each point builds a private network the caller never sees (under PDES the process-wide aggregate covers them)",
	"per-rank MPI wait, and meg-music's messages: internal/mpi keeps no counters and the MEG report carries no message count",
	"core.* on coupled-apps: every coupled scenario is a one-point plan whose single EvalPoint is the gtw.Run already timed",
}

// layerTally accumulates what the traced passes and probes measure.
type layerTally struct {
	passes, probes int

	// Per scenario: total wall and CPU time of its gtw.Run calls, and
	// how many calls.
	runMS, cpuMS map[string]float64
	runs         map[string]int

	points, wireBytes       int
	events, backbone, drops int64
	shardIdle               time.Duration

	pdes0, pdes1 core.PDESAggregate

	mpiMsgs, mpiBytes int64

	distEval, dispatchWait time.Duration
	fresh                  int
	http0, http1           httpCounts
	worker0, worker1       httpCounts
	dist0, dist1           map[string]float64
	wal0, wal1             int64
}

// traced is the traced run of one workload: untraced passes, then
// traced passes, then probes of the core layer. The two kinds of pass
// make the same calls, so their times give the tracing overhead.
func traced(ctx context.Context, o options) (*childResult, error) {
	spec, _ := lookupWorkload(o.workload)
	tr := newTracer()
	e := env{spec: spec, seed: o.seed, data: o.data, tr: tr}
	sp := tr.begin("setup")
	w, err := spec.start(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	warm, err := w.warmUp(ctx)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if err := w.prepareChecks(ctx); err != nil {
		return nil, err
	}
	cr := &childResult{Correct: true}
	if err := w.check(ctx, warm); err != nil {
		logf("%s: warm-up pass failed its checks: %v", spec.name, err)
		cr.Correct = false
	}

	t := &layerTally{runMS: map[string]float64{}, cpuMS: map[string]float64{}, runs: map[string]int{}}
	in, _ := w.(*inProcess)
	rm, _ := w.(*remote)
	pass := func(i int) (passOut, error) {
		if in != nil {
			return in.seqPass(ctx, tr, t)
		}
		return rm.pass(ctx, i)
	}
	var untracedMS, tracedMS []float64
	runPass := func(i int, traced bool) {
		tr.on = traced
		sp := tr.begin("pass")
		t0 := time.Now()
		out, err := pass(i)
		d := float64(time.Since(t0)) / float64(time.Millisecond)
		tr.end(sp)
		tr.on = true
		cr.Attempted++
		if err == nil {
			err = w.check(ctx, out)
		}
		if err != nil {
			cr.Failed++
			logf("%s: pass %d failed: %v", spec.name, i, err)
			return
		}
		if !traced {
			untracedMS = append(untracedMS, d)
			return
		}
		tracedMS = append(tracedMS, d)
		t.passes++
		t.tallyPass(out)
	}

	// Three phases of equal length: untraced passes, traced passes, and
	// probes of the core layer (the probes run between no two passes, so
	// they leave the phase of the worker's idle poll alone). coupled-apps
	// has no probe; its two pass phases take half the run each.
	probe := spec.name != "coupled-apps"
	phases := time.Duration(2)
	if probe {
		phases = 3
	}
	phase := time.Duration(o.seconds) * time.Second / phases
	i := 0
	for until := time.Now().Add(phase); i == 0 || time.Now().Before(until); i++ {
		runPass(i, false)
	}
	// Barrier-wait telemetry costs clock reads, so it is on only for the
	// traced passes (it applies to testbeds built from here on).
	core.EnablePDESBlockedTelemetry()
	t.pdes0 = gtw.PDESSnapshot()
	if rm != nil {
		t.http0, t.worker0 = rm.clientHTTP.snapshot(), rm.workerHTTP.snapshot()
		t.dist0, t.wal0 = coordCounters(rm.coord), dirBytes(o.data)
	}
	for until, j := time.Now().Add(phase), 0; j == 0 || time.Now().Before(until); j, i = j+1, i+1 {
		runPass(i, true)
	}
	t.pdes1 = gtw.PDESSnapshot()
	if rm != nil {
		t.http1, t.worker1 = rm.clientHTTP.snapshot(), rm.workerHTTP.snapshot()
		t.dist1, t.wal1 = coordCounters(rm.coord), dirBytes(o.data)
	}
	if probe {
		opts := gtw.NewOptions()
		if in != nil {
			opts = gtw.NewOptions(in.opts...)
		}
		for until := time.Now().Add(phase); t.probes == 0 || time.Now().Before(until); t.probes++ {
			if err := t.probeCore(ctx, tr, spec.scenarios, opts, spec.name == "testbed-pdes", rm != nil); err != nil {
				return nil, fmt.Errorf("core probe: %w", err)
			}
		}
	}

	cr.Metrics = t.metrics(tr, spec.name == "testbed-pdes", tracedMS, untracedMS)

	path := filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", spec.name, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	over := 100 * (median(tracedMS)/median(untracedMS) - 1)
	logf("%s: tracing overhead %+.1f%%: traced pass p50 %.3f ms over %d passes, untraced %.3f ms over %d passes; %d spans written to %s",
		spec.name, over, median(tracedMS), len(tracedMS), median(untracedMS), len(untracedMS), len(tr.spans), path)
	for _, u := range unmeasured {
		logf("unmeasured: %s", u)
	}
	printTable(os.Stderr, spec.name+" (traced)", cr)
	return cr, nil
}

// seqPass runs the workload's scenarios one after another through
// gtw.Run, with a span and a CPU reading around each call when the
// tracer is on.
func (w *inProcess) seqPass(ctx context.Context, tr *tracer, t *layerTally) (passOut, error) {
	var out passOut
	before := gtw.PDESSnapshot().Rounds
	for _, name := range w.e.spec.scenarios {
		on := tr.on
		var c0 time.Duration
		if on {
			c0 = cpuTime()
		}
		sp := tr.begin("gtw.Run/" + name)
		t0 := time.Now()
		rep, err := gtw.Run(ctx, name, w.opts...)
		d := time.Since(t0)
		tr.end(sp)
		if on {
			t.tallyRun(name, d, cpuTime()-c0)
			if sr, ok := rep.(gtw.ShardedReport); ok && err == nil {
				var busy time.Duration
				for _, st := range sr.ShardTimings() {
					busy += st.Elapsed()
				}
				t.shardIdle += d*time.Duration(len(sr.ShardTimings())) - busy
			}
		}
		out.results = append(out.results, gtw.RunResult{Name: name, Report: rep, Err: err, Elapsed: d})
	}
	if w.pdes {
		out.rounds = gtw.PDESSnapshot().Rounds - before
	}
	return out, nil
}

// tallyRun adds one gtw.Run call's wall and CPU time.
func (t *layerTally) tallyRun(name string, wall, cpu time.Duration) {
	t.runMS[name] += float64(wall) / float64(time.Millisecond)
	t.cpuMS[name] += float64(cpu) / float64(time.Millisecond)
	t.runs[name]++
}

// tallyPass takes the counts a traced pass's outputs carry.
func (t *layerTally) tallyPass(out passOut) {
	for _, r := range out.results {
		js, err := r.Report.JSON()
		if err != nil {
			continue
		}
		msgs, bytes := mpiTraffic(r.Name, js)
		t.mpiMsgs += msgs
		t.mpiBytes += bytes
	}
	for _, j := range out.jobs {
		var eval time.Duration
		for _, s := range j.st.Shards {
			eval += s.Elapsed()
		}
		t.distEval += eval
		if j.fresh {
			t.fresh++
			t.dispatchWait += j.wall - eval
		}
	}
}

// mpiTraffic derives a coupled scenario's MPI messages and bytes from
// its report and the exchange pattern of its coupling loop.
func mpiTraffic(name string, js []byte) (msgs, bytes int64) {
	switch name {
	case "climate-coupled":
		var r gtw.ClimateReport
		if json.Unmarshal(js, &r) == nil {
			// Per step: ocean->coupler (2 ocean fields), coupler->atmos
			// (2 atmos fields), atmos->coupler (3 atmos fields),
			// coupler->ocean (3 ocean fields).
			steps := int64(r.Result.Steps)
			return 4 * steps, steps * 8 * 5 * (climateOceanCells + climateAtmosCells)
		}
	case "fsi-cocolib":
		var r gtw.FSIReport
		if json.Unmarshal(js, &r) == nil {
			// A mesh handshake each way, then one Sendrecv per step.
			return 2 + 2*int64(r.Result.Steps), r.Result.BytesExchanged + 8*(fsiFluidNodes+fsiStructNodes)
		}
	case "groundwater-coupled":
		var r gtw.GroundwaterReport
		if json.Unmarshal(js, &r) == nil {
			// One field per step, then the one-value solver tally.
			return int64(r.Result.Steps) + 1, r.Result.TotalBytes + 8
		}
	}
	return 0, 0
}

// probeCore evaluates every grid point of the scenarios' plans one at a
// time, on testbeds the benchmark builds itself, round-trips each point
// result through the wire codec, and merges — the core layer's calls,
// each in a span.
//
// On remote-jobs (inProcessRuns) the probe also runs each scenario in
// process through gtw.Run, the local counterpart of the remote job.
func (t *layerTally) probeCore(ctx context.Context, tr *tracer, names []string, opts gtw.Options, pdes, inProcessRuns bool) error {
	root := tr.begin("probe")
	defer tr.end(root)
	for _, name := range names {
		s, ok := gtw.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q", name)
		}
		if inProcessRuns {
			c0 := cpuTime()
			sp := tr.begin("gtw.Run/" + name)
			t0 := time.Now()
			_, err := gtw.Run(ctx, name)
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			t.tallyRun(name, d, cpuTime()-c0)
		}
		sw := gtw.PlanFor(s).Sweep()
		var tb *core.Testbed
		if sw.NeedsShardTestbed() {
			sp := tr.begin("core.New")
			tb = sw.NewShardTestbed(opts)
			tr.end(sp)
		}
		var fired int64
		if tb != nil {
			fired = tb.K.Fired()
		}
		n := len(sw.Points())
		run := core.NewSweepRun(sw, opts, core.NewContiguousDispatcher(n, 1), 0)
		for i := 0; i < n; i++ {
			sp := tr.begin("core.EvalPoint")
			v, err := sw.EvalPoint(ctx, tb, opts, i)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s point %d: %w", name, i, err)
			}
			sp = tr.begin("core.EncodePoint")
			b, err := sw.EncodePoint(v)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("core.DecodePoint")
			_, err = sw.DecodePoint(b)
			tr.end(sp)
			if err != nil {
				return err
			}
			t.points++
			t.wireBytes += len(b)
			run.Prefill(i, v)
		}
		sp := tr.begin("core.Merge")
		_, err := run.Report(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		if tb != nil {
			if !pdes {
				t.events += tb.K.Fired() - fired
			}
			t.backbone += tb.BackboneWireBytes()
			for id := 0; id < tb.Net.Nodes(); id++ {
				t.drops += tb.Net.Node(netsim.NodeID(id)).Drops()
			}
		}
	}
	return nil
}

// coordCounters reads the coordinator's public counters from its
// /v1/metrics rendering, summed over labels.
func coordCounters(c *dist.Coordinator) map[string]float64 {
	var sb strings.Builder
	if err := c.Metrics().WriteText(&sb); err != nil {
		logf("reading coordinator metrics: %v", err)
	}
	return parseCounters(sb.String())
}

// metrics turns the tally into the per-layer metrics, per traced pass
// or per probe; tracedMS and untracedMS are the pass times (ms) of the
// two pass phases, whose medians give the tracing overhead.
func (t *layerTally) metrics(tr *tracer, pdes bool, tracedMS, untracedMS []float64) map[string]metric {
	ops := float64(max(t.passes, 1))
	probes := float64(max(t.probes, 1))
	self := tr.selfTimes()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	perPoint := func(x float64) float64 {
		if t.points == 0 {
			return 0
		}
		return x / float64(t.points)
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}

	eval := self["core.EvalPoint"]
	set("core.eval_ms_per_op", ms(eval)/probes, "ms")
	set("core.points_per_op", float64(t.points)/probes, "count")
	set("core.merge_ms_per_op", ms(self["core.Merge"])/probes, "ms")
	set("core.shard_idle_ms_per_op", ms(t.shardIdle)/ops, "ms")
	set("core.codec_us_per_point", perPoint(float64(self["core.EncodePoint"]+self["core.DecodePoint"])/1e3), "us")
	set("core.wire_kb_per_point", perPoint(float64(t.wireBytes)/1024), "KB")
	builds := tr.count("core.New")
	set("core.testbed_build_ms", ms(self["core.New"])/float64(max(builds, 1)), "ms")

	var kernelEvents []int64
	for k, v := range t.pdes1.KernelEvents {
		if k < len(t.pdes0.KernelEvents) {
			v -= t.pdes0.KernelEvents[k]
		}
		kernelEvents = append(kernelEvents, v)
	}
	// Events per op: fired on the probe's own testbeds, or under PDES
	// the exact process-wide count over the traced passes.
	events := float64(t.events) / probes
	if pdes {
		var sum int64
		for _, v := range kernelEvents {
			sum += v
		}
		events = float64(sum) / ops
	}
	set("sim.events_per_op", events, "count")
	set("sim.events_per_s", events/(eval.Seconds()/probes), "1/s")
	set("netsim.backbone_mb_per_op", float64(t.backbone)/(1<<20)/probes, "MB")
	set("netsim.drops_per_op", float64(t.drops)/probes, "count")

	set("pdes.rounds_per_op", float64(t.pdes1.Rounds-t.pdes0.Rounds)/ops, "count")
	set("pdes.null_msgs_per_op", float64(t.pdes1.NullMessages-t.pdes0.NullMessages)/ops, "count")
	var evMax, evSum int64
	for _, v := range kernelEvents {
		evMax = max(evMax, v)
		evSum += v
	}
	skew := 0.0
	if evSum > 0 {
		skew = float64(evMax) / (float64(evSum) / float64(len(kernelEvents)))
	}
	set("pdes.event_skew", skew, "ratio")
	var blocked time.Duration
	for k, v := range t.pdes1.KernelBlocked {
		if k < len(t.pdes0.KernelBlocked) {
			v -= t.pdes0.KernelBlocked[k]
		}
		blocked += v
	}
	set("pdes.blocked_ms_per_op", ms(blocked)/ops, "ms")

	perRun := func(x float64, name string) float64 { return x / float64(max(t.runs[name], 1)) }
	for _, name := range perLayerScenarios {
		set("gtw.run_ms."+name, perRun(t.runMS[name], name), "ms")
	}
	for _, name := range workloadScenarios("coupled-apps") {
		set("gtw.cpu_ms."+name, perRun(t.cpuMS[name], name), "ms")
	}

	set("mpi.messages_per_op", float64(t.mpiMsgs)/ops, "count")
	set("mpi.mb_per_op", float64(t.mpiBytes)/(1<<20)/ops, "MB")
	shaper := time.Duration(t.mpiMsgs)*550*time.Microsecond +
		time.Duration(float64(t.mpiBytes)*8/260e6*float64(time.Second))
	set("mpi.shaped_delay_ms_per_op", ms(shaper)/ops, "ms")

	set("client.submit_ms_per_op", ms(self["client.Submit"])/ops, "ms")
	set("client.wait_ms_per_op", ms(self["client.WaitStream"])/ops, "ms")
	set("dist.eval_ms_per_op", ms(t.distEval)/ops, "ms")
	set("dist.dispatch_wait_ms_per_op", ms(t.dispatchWait)/float64(max(t.fresh, 1)), "ms")
	set("dist.points_run_per_op", (t.dist1["gtw_points_run_total"]-t.dist0["gtw_points_run_total"])/ops, "count")
	set("dist.points_hit_per_op", (t.dist1["gtw_points_hit_total"]-t.dist0["gtw_points_hit_total"])/ops, "count")
	set("dist.leases_per_op", (t.dist1["gtw_leases_granted_total"]-t.dist0["gtw_leases_granted_total"])/ops, "count")
	wk := t.worker1.sub(t.worker0)
	set("dist.lease_yield", float64(wk.leaseGranted)/float64(wk.leaseAsked), "ratio")
	h := t.http1.sub(t.http0).add(wk)
	set("http.requests_per_op", float64(h.requests)/ops, "count")
	set("http.kb_per_op", float64(h.bytes)/1024/ops, "KB")
	set("persist.wal_kb_per_op", float64(t.wal1-t.wal0)/1024/ops, "KB")
	set("persist.recover_ms", ms(self["persist.Open"]), "ms")
	set("trace.pass_ms", median(tracedMS), "ms")
	set("trace.untraced_pass_ms", median(untracedMS), "ms")
	return m
}

func workloadScenarios(name string) []string {
	spec, _ := lookupWorkload(name)
	return spec.scenarios
}

// parseCounters sums the samples of each metric family in a Prometheus
// text rendering over their labels.
func parseCounters(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}
