package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	gtw "repro"

	"repro/internal/dist"
	"repro/internal/persist"
)

// workloadSpec names a workload, the scenarios one pass runs, and how
// the workload is started.
type workloadSpec struct {
	name      string
	scenarios []string
	start     func(ctx context.Context, e env) (workload, error)
}

// workloads are the four workloads, each one closed-loop caller that
// runs the next pass only after the previous one has returned.
var workloads = []workloadSpec{
	{
		// The packet-level simulator and the sweep engine do nearly all
		// the work: no MPI, no HTTP, no PDES.
		name:      "testbed-serial",
		scenarios: []string{"figure1-throughput", "backbone-aggregate", "mixed-traffic", "video-d1", "fmri-pe-sweep"},
		start: func(ctx context.Context, e env) (workload, error) {
			// Each report must equal the same scenario run at one shard.
			return newInProcess(e, nil, []gtw.Option{gtw.WithShards(1)}), nil
		},
	},
	{
		// The first three scenarios of testbed-serial on two PDES
		// kernels, one after another: the difference between the two
		// workloads is the PDES layer.
		name:      "testbed-pdes",
		scenarios: []string{"figure1-throughput", "backbone-aggregate", "mixed-traffic"},
		start: func(ctx context.Context, e env) (workload, error) {
			w := newInProcess(e,
				[]gtw.Option{gtw.WithKernels(2), gtw.WithIntra(), gtw.WithWorkers(1), gtw.WithShards(1)},
				[]gtw.Option{gtw.WithShards(1)}) // the one-kernel run
			w.pdes = true
			return w, nil
		},
	},
	{
		// The metacomputing MPI and the application compute packages:
		// no packet simulation, no HTTP. Most of the wall time is the
		// WAN shaper's sleep.
		name:      "coupled-apps",
		scenarios: []string{"climate-coupled", "fsi-cocolib", "groundwater-coupled", "meg-music", "figure4-workbench"},
		start: func(ctx context.Context, e env) (workload, error) {
			return newInProcess(e, nil, nil), nil
		},
	},
	{
		// The distributed run service: coordinator, durable point store,
		// one worker and a client on loopback HTTP.
		name:      "remote-jobs",
		scenarios: append([]string{freshScenario}, repeatedScenarios...),
		start:     startRemote,
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// env is what a workload process is handed.
type env struct {
	spec workloadSpec
	seed uint64
	// data is this process's own copy of the prebuilt data directory
	// (remote-jobs only).
	data string
	// tr records spans around the calls into each layer; nil when
	// untraced.
	tr *tracer
}

// workload is one started workload.
type workload interface {
	// warmUp runs the untimed pass that ends set-up; it starts no fresh
	// remote job.
	warmUp(ctx context.Context) (passOut, error)
	// pass runs timed pass i.
	pass(ctx context.Context, i int) (passOut, error)
	// prepareChecks computes what the checks compare against. It runs
	// after set-up is timed and before the first timed pass.
	prepareChecks(ctx context.Context) error
	// check verifies one pass's outputs.
	check(ctx context.Context, out passOut) error
	close()
}

// passOut is what one pass returns.
type passOut struct {
	results []gtw.RunResult // in-process workloads
	rounds  int64           // PDES rounds the pass turned
	jobs    []jobOut        // remote-jobs
}

// jobOut is one remote job of a pass.
type jobOut struct {
	req   dist.JobRequest
	fresh bool
	st    *dist.JobStatus
	wall  time.Duration // Submit start to WaitStream return
}

// ---------------------------------------------------------------- in-process

// inProcess drives gtw.RunAll over the workload's scenario list, as
// cmd/gtwrun does.
type inProcess struct {
	e       env
	opts    []gtw.Option // the options every pass runs with
	refOpts []gtw.Option // nil: the workload has no reference runs
	pdes    bool

	refs   map[string]gtw.Report
	checks references
}

func newInProcess(e env, opts, refOpts []gtw.Option) *inProcess {
	// Resolving every scenario's plan is part of set-up, as it is for
	// gtwrun before it runs anything.
	for _, name := range e.spec.scenarios {
		if s, ok := gtw.Lookup(name); ok {
			gtw.PlanFor(s)
		}
	}
	return &inProcess{e: e, opts: opts, refOpts: refOpts}
}

func (w *inProcess) warmUp(ctx context.Context) (passOut, error) { return w.pass(ctx, -1) }

func (w *inProcess) pass(ctx context.Context, _ int) (passOut, error) {
	var before int64
	if w.pdes {
		before = gtw.PDESSnapshot().Rounds
	}
	res, err := gtw.RunAll(ctx, w.e.spec.scenarios, w.opts...)
	out := passOut{results: res}
	if w.pdes {
		out.rounds = gtw.PDESSnapshot().Rounds - before
	}
	return out, err
}

func (w *inProcess) prepareChecks(ctx context.Context) error {
	var err error
	if w.refOpts != nil {
		w.refs = make(map[string]gtw.Report)
		for _, name := range w.e.spec.scenarios {
			if w.refs[name], err = gtw.Run(ctx, name, w.refOpts...); err != nil {
				return fmt.Errorf("reference run of %s: %w", name, err)
			}
		}
	}
	w.checks.dataflow256, err = dataflowReference(ctx, w.e.spec.scenarios)
	return err
}

// dataflowReference runs fmri-dataflow at 256 PEs on its own when the
// scenario list holds fmri-pe-sweep, whose 256-PE row must equal it.
func dataflowReference(ctx context.Context, names []string) ([]byte, error) {
	for _, n := range names {
		if n != "fmri-pe-sweep" {
			continue
		}
		rep, err := gtw.Run(ctx, "fmri-dataflow", gtw.WithPEs(256))
		if err != nil {
			return nil, fmt.Errorf("reference run of fmri-dataflow: %w", err)
		}
		return rep.JSON()
	}
	return nil, nil
}

func (w *inProcess) check(_ context.Context, out passOut) error {
	if len(out.results) != len(w.e.spec.scenarios) {
		return fmt.Errorf("%d results for %d scenarios", len(out.results), len(w.e.spec.scenarios))
	}
	for _, r := range out.results {
		if err := checkReport(r.Name, r.Report, r.Err, w.refs[r.Name], &w.checks); err != nil {
			return err
		}
	}
	if w.pdes && out.rounds <= 0 {
		return fmt.Errorf("pass turned %d PDES rounds: the partition was never applied", out.rounds)
	}
	return nil
}

// checkReport checks one in-process scenario result: no error, the same
// bytes as the reference run when there is one, and the scenario's
// property.
func checkReport(name string, rep gtw.Report, runErr error, ref gtw.Report, refs *references) error {
	if runErr != nil {
		return fmt.Errorf("%s: %w", name, runErr)
	}
	js, err := rep.JSON()
	if err != nil {
		return fmt.Errorf("%s: JSON: %w", name, err)
	}
	if ref != nil {
		if err := sameReport(rep.Text(), js, ref); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return checkProperty(name, js, refs)
}

func (w *inProcess) close() {}

// ---------------------------------------------------------------- remote

// freshScenario is submitted once per pass at a -pes value never
// submitted before; repeatedScenarios are served by the point store.
const freshScenario = "fmri-dataflow"

var repeatedScenarios = []string{"fmri-pe-sweep", "figure1-throughput"}

// pesSequence is the seeded order of fresh -pes values: a permutation
// of a range far larger than any run's pass count, so no value repeats
// within a run. The seed shapes nothing else in the benchmark.
func pesSequence(seed uint64) []int {
	const lo, n = 32, 8192
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	seq := r.Perm(n)
	for i := range seq {
		seq[i] += lo
	}
	return seq
}

// remote is an in-process coordinator with a durable data directory and
// no local shards, one worker, and one client on loopback HTTP — the
// path of `gtwrun -connect` against `gtwd -local-shards -1 -data-dir`.
type remote struct {
	e     env
	pes   []int
	store *persist.Disk
	coord *dist.Coordinator
	srv   *http.Server
	cl    *dist.Client

	stopWorker context.CancelFunc
	workerDone chan struct{}

	// Request and byte counts on the client's and the worker's HTTP
	// transports.
	clientHTTP, workerHTTP *countingTransport

	refs   map[string]gtw.Report
	checks references
}

func startRemote(ctx context.Context, e env) (workload, error) {
	w := &remote{e: e, pes: pesSequence(e.seed)}
	var err error
	sp := e.tr.begin("persist.Open")
	w.store, err = persist.Open(e.data, persist.DiskOptions{})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.coord = dist.New(dist.Config{Store: w.store, LocalShards: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.coord.Close()
		w.store.Close()
		return nil, err
	}
	w.srv = &http.Server{Handler: w.coord.Handler()}
	go func() { _ = w.srv.Serve(ln) }() // returns once close() shuts the server
	base := "http://" + ln.Addr().String()

	w.clientHTTP = newCountingTransport()
	w.workerHTTP = newCountingTransport()
	w.cl = &dist.Client{Base: base, HTTP: &http.Client{Transport: w.clientHTTP, Timeout: 60 * time.Second}}
	wk := dist.NewWorker(base)
	wk.Client = &http.Client{Transport: w.workerHTTP, Timeout: 60 * time.Second}
	wctx, cancel := context.WithCancel(context.Background())
	w.stopWorker = cancel
	w.workerDone = make(chan struct{})
	go func() {
		defer close(w.workerDone)
		_ = wk.Run(wctx) // returns ctx's error once close() cancels it
	}()
	return w, nil
}

func (w *remote) warmUp(ctx context.Context) (passOut, error) { return w.repeated(ctx, passOut{}) }

// repeated runs the jobs the point store serves and appends them to out.
func (w *remote) repeated(ctx context.Context, out passOut) (passOut, error) {
	for _, name := range repeatedScenarios {
		j, err := w.runJob(ctx, name, gtw.DefaultOptions(), false)
		out.jobs = append(out.jobs, j)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (w *remote) pass(ctx context.Context, i int) (passOut, error) {
	if i >= len(w.pes) {
		return passOut{}, fmt.Errorf("pass %d: the -pes sequence holds %d fresh values", i, len(w.pes))
	}
	var out passOut
	j, err := w.runJob(ctx, freshScenario, gtw.NewOptions(gtw.WithPEs(w.pes[i])), true)
	out.jobs = append(out.jobs, j)
	if err != nil {
		return out, err
	}
	return w.repeated(ctx, out)
}

// runJob submits one job and follows it to its end, as gtwrun -connect
// does.
func (w *remote) runJob(ctx context.Context, name string, o gtw.Options, fresh bool) (jobOut, error) {
	j := jobOut{req: dist.JobRequest{Scenario: name, Opts: dist.FromOptions(o)}, fresh: fresh}
	t := time.Now()
	sp := w.e.tr.begin("client.Submit")
	st, err := w.cl.Submit(ctx, j.req)
	w.e.tr.end(sp)
	if err == nil && st.Status != dist.JobDone && st.Status != dist.JobFailed {
		sp = w.e.tr.begin("client.WaitStream")
		st, err = w.cl.WaitStream(ctx, st.ID, nil)
		w.e.tr.end(sp)
	}
	j.wall = time.Since(t)
	j.st = st
	if err != nil {
		return j, fmt.Errorf("%s: %w", name, err)
	}
	return j, nil
}

func (w *remote) prepareChecks(ctx context.Context) error {
	w.refs = make(map[string]gtw.Report)
	for _, name := range repeatedScenarios {
		rep, err := gtw.Run(ctx, name)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", name, err)
		}
		w.refs[name] = rep
	}
	var err error
	w.checks.dataflow256, err = dataflowReference(ctx, repeatedScenarios)
	return err
}

// check compares every job's report with an in-process gtw.Run of the
// same scenario and options. A fresh job must have computed every
// point; a repeated job must have been served from the point store.
func (w *remote) check(ctx context.Context, out passOut) error {
	for _, j := range out.jobs {
		st := j.st
		name := j.req.Scenario
		if st == nil || st.Status != dist.JobDone || len(st.Report) == 0 {
			return fmt.Errorf("%s: job did not finish with a report: %+v", name, st)
		}
		ref := w.refs[name]
		if j.fresh {
			if st.PointHits != 0 || st.Cached {
				return fmt.Errorf("%s at %d PEs: fresh job reports %d point hits (cached %v)", name, j.req.Opts.PEs, st.PointHits, st.Cached)
			}
			var err error
			if ref, err = gtw.Run(ctx, name, gtw.WithPEs(j.req.Opts.PEs)); err != nil {
				return fmt.Errorf("reference run of %s: %w", name, err)
			}
		} else if !st.Cached {
			return fmt.Errorf("%s: repeated job not served from the point store (%d/%d hits)", name, st.PointHits, st.PointsTotal)
		}
		if ref == nil {
			return errors.New(name + ": no reference run")
		}
		if err := sameReport(st.Text, st.Report, ref); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := checkProperty(name, st.Report, &w.checks); err != nil {
			return err
		}
	}
	return nil
}

func (w *remote) close() {
	w.stopWorker()
	<-w.workerDone
	w.coord.Close()
	_ = w.srv.Close() // the listener's close error carries nothing to act on
	if err := w.store.Close(); err != nil {
		logf("closing the data directory: %v", err)
	}
}

// prepareData builds the prebuilt data directory: a durable store that
// already holds the points of the repeated remote jobs, made by a
// coordinator with one local shard.
func prepareData(ctx context.Context, dir string) error {
	store, err := persist.Open(dir, persist.DiskOptions{})
	if err != nil {
		return err
	}
	c := dist.New(dist.Config{Store: store, LocalShards: 1})
	for _, name := range repeatedScenarios {
		st, err := c.Submit(dist.JobRequest{Scenario: name, Opts: dist.FromOptions(gtw.DefaultOptions())})
		if err == nil {
			st, err = c.WaitJob(ctx, st.ID)
		}
		if err == nil && st.Status != dist.JobDone {
			err = fmt.Errorf("job %s", st.Status)
		}
		if err != nil {
			c.Close()
			store.Close()
			return fmt.Errorf("prebuilding %s: %w", name, err)
		}
	}
	c.Close()
	return store.Close()
}
