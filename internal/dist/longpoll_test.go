package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
)

// wakeBound is how soon after grantable work appears a held lease
// request must be granted.
const wakeBound = 50 * time.Millisecond

// leaseAnswer is the outcome of one lease request: the status, the
// lease on 200, and when the answer arrived.
type leaseAnswer struct {
	code  int
	lease LeaseReply
	at    time.Time
	err   error
}

// askLease sends one lease request in the background; the answer
// arrives on the returned channel.
func askLease(ctx context.Context, base, token, workerID string) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	go func() {
		var a leaseAnswer
		defer func() { out <- a }()
		body, _ := json.Marshal(LeaseRequest{WorkerID: workerID})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/workers/lease", bytes.NewReader(body))
		if err != nil {
			a.err = err
			return
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		a.at = time.Now()
		if err != nil {
			a.err = err
			return
		}
		defer resp.Body.Close()
		a.code = resp.StatusCode
		if a.code == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.lease)
		}
	}()
	return out
}

// heldLease asks for a lease and waits until the coordinator is
// holding the request: nothing is grantable yet.
func heldLease(t *testing.T, base, token, workerID string) <-chan leaseAnswer {
	t.Helper()
	ans := askLease(context.Background(), base, token, workerID)
	select {
	case a := <-ans:
		t.Fatalf("lease request answered at once (%d, %v); want it held", a.code, a.err)
	case <-time.After(100 * time.Millisecond):
	}
	return ans
}

// granted waits for a held request's answer, which must be a lease,
// and returns how long after since it arrived.
func granted(t *testing.T, ans <-chan leaseAnswer, since time.Time) time.Duration {
	t.Helper()
	select {
	case a := <-ans:
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("held lease request answered %d (%v), want a lease", a.code, a.err)
		}
		return a.at.Sub(since)
	case <-time.After(10 * time.Second):
		t.Fatal("held lease request never answered")
		return 0
	}
}

// uploadLease evaluates a lease as a worker would and completes it.
func uploadLease(t *testing.T, tc *testCluster, token, workerID string, l LeaseReply) {
	t.Helper()
	s, _ := core.Lookup(l.Scenario)
	sw := core.PlanFor(s).Sweep()
	vals, errStrs, err := sw.RunLease(context.Background(), l.Opts.Options(), l.Lo, l.Hi)
	if err != nil {
		t.Fatal(err)
	}
	up := ResultUpload{WorkerID: workerID, JobID: l.JobID, Seq: l.Seq, Lo: l.Lo, Hi: l.Hi}
	for k := range vals {
		b, err := sw.EncodePoint(vals[k])
		if err != nil {
			t.Fatal(err)
		}
		up.Points = append(up.Points, PointResult{Index: l.Lo + k, Value: b, Error: errStrs[k]})
	}
	if code, body := postAs(t, tc.srv.URL+"/v1/workers/result", token, up); code != http.StatusOK {
		t.Fatalf("result upload: %d: %s", code, body)
	}
}

func TestHeldLeaseGrantedOnSubmit(t *testing.T) {
	registerWireSweep("dist-test-lp-submit", 4, 0)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 10 * time.Second})
	ans := heldLease(t, tc.srv.URL, "", "w-idle")
	submitted := time.Now()
	if _, err := tc.cl.Submit(context.Background(), JobRequest{Scenario: "dist-test-lp-submit"}); err != nil {
		t.Fatal(err)
	}
	if d := granted(t, ans, submitted); d > wakeBound {
		t.Errorf("held lease granted %v after the submit, want within %v", d, wakeBound)
	}
}

func TestHeldLeaseGrantedOnExpiryRequeue(t *testing.T) {
	registerWireSweep("dist-test-lp-expiry", 1, 0)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 400 * time.Millisecond})
	// The reaper publishes each expiry, stamped in milliseconds, inside
	// the critical section that requeues the points.
	events := tc.c.events.subscribe()
	expired := make(chan time.Time, 1)
	go func() {
		for frame := range events {
			if data, ok := bytes.CutPrefix(frame, []byte("event: lease\ndata: ")); ok {
				var ev Event
				if json.Unmarshal(bytes.TrimSpace(data), &ev) == nil {
					expired <- time.UnixMilli(ev.TimeMS)
				}
				return
			}
		}
	}()
	st, err := tc.cl.Submit(context.Background(), JobRequest{Scenario: "dist-test-lp-expiry"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, tc.cl, st.ID)
	if a := <-askLease(context.Background(), tc.srv.URL, "", "w-dead"); a.code != http.StatusOK {
		t.Fatalf("dead worker's lease: %d (%v)", a.code, a.err)
	}
	// The dead worker holds the only point; the rescuer waits, asking
	// again whenever a hold runs out, until the expiry requeues it.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		a := <-askLease(context.Background(), tc.srv.URL, "", "w-rescuer")
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.code != http.StatusOK {
			continue
		}
		select {
		case at := <-expired:
			if d := a.at.Sub(at); d > wakeBound || d < -time.Millisecond {
				t.Errorf("requeued lease granted %v after the expiry, want within %v", d, wakeBound)
			}
		case <-time.After(time.Second):
			t.Fatal("rescuer granted a lease without an expiry")
		}
		return
	}
	t.Fatal("the expired lease was never granted again")
}

func TestHeldLeaseGrantedOnInFlightCapRelease(t *testing.T) {
	registerWireSweep("dist-test-lp-cap", 8, 0)
	reg := mustRegistry(t, &tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.Normal, MaxInFlight: 1})
	tc := newCluster(t, Config{Tenants: reg, LocalShards: -1, LeaseTTL: 10 * time.Second})
	cl := tc.authedClient("tok-alpha")
	st, err := cl.Submit(context.Background(), JobRequest{Scenario: "dist-test-lp-cap"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, cl, st.ID)
	first, ok := tc.takeLease(t, "tok-alpha", "w-0")
	if !ok {
		t.Fatal("no first lease")
	}
	// The tenant is at its cap: the second worker's request is held
	// until the first lease completes.
	ans := heldLease(t, tc.srv.URL, "tok-alpha", "w-1")
	uploaded := time.Now()
	uploadLease(t, tc, "tok-alpha", "w-0", *first)
	if d := granted(t, ans, uploaded); d > wakeBound {
		t.Errorf("held lease granted %v after the capped lease completed, want within %v", d, wakeBound)
	}
}

// heldCluster is a coordinator whose HTTP server counts lease requests
// and the lease handlers still running.
type heldCluster struct {
	*testCluster
	asked, active atomic.Int64
}

func newHeldCluster(t *testing.T, cfg Config) *heldCluster {
	t.Helper()
	cfg.Logf = t.Logf
	hc := &heldCluster{}
	c := New(cfg)
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/workers/lease" {
			hc.asked.Add(1)
			hc.active.Add(1)
			defer hc.active.Add(-1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	hc.testCluster = &testCluster{c: c, srv: srv, cl: &Client{Base: srv.URL}}
	return hc
}

func TestHeldLeaseEndsOnClose(t *testing.T) {
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 10 * time.Second})
	ans := heldLease(t, tc.srv.URL, "", "w-idle")
	closed := time.Now()
	tc.c.Close()
	select {
	case a := <-ans:
		if a.code != http.StatusNoContent {
			t.Errorf("held lease answered %d (%v) on Close, want 204", a.code, a.err)
		}
		if d := a.at.Sub(closed); d > time.Second {
			t.Errorf("held lease answered %v after Close, want well inside the 5s hold", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("held lease request outlived Close")
	}
}

func TestHeldLeaseEndsOnClientCancel(t *testing.T) {
	hc := newHeldCluster(t, Config{LocalShards: -1, LeaseTTL: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	ans := askLease(ctx, hc.srv.URL, "", "w-gone")
	time.Sleep(100 * time.Millisecond)
	if hc.active.Load() != 1 {
		t.Fatalf("%d lease handler(s) running, want the one held request", hc.active.Load())
	}
	cancel()
	<-ans
	deadline := time.Now().Add(time.Second)
	for hc.active.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hc.active.Load() > 0 {
		t.Error("lease handler still holding the request 1s after its client went away")
	}
}

// A coordinator that cannot hold lease requests answers 204 at once;
// an idle worker must pace itself instead of spinning on it.
func TestIdleWorkerDoesNotSpinOnImmediateEmptyAnswers(t *testing.T) {
	hc := newHeldCluster(t, Config{LocalShards: -1})
	hc.c.Close() // a closing coordinator answers every lease request 204 at once
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	w := NewWorker(hc.srv.URL)
	w.Logf = t.Logf
	if err := w.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("worker Run = %v, want the deadline", err)
	}
	if n, most := hc.asked.Load(), int64(time.Second/retryInterval)+2; n < 1 || n > most {
		t.Errorf("idle worker sent %d lease requests in 1s, want 1..%d", n, most)
	}
}
