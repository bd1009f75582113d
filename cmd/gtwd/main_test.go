package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist"
)

// TestMain lets a test start this binary as gtwd itself: with
// GTWD_TEST_MAIN=1 in its environment, the test binary runs main.
func TestMain(m *testing.M) {
	if os.Getenv("GTWD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An idle worker's lease request is held for up to half the lease TTL
// (5s by default). SIGTERM must end it at once, so gtwd exits without
// waiting out the hold or the shutdown timeout.
func TestSIGTERMWithIdleWorkerExitsPromptly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-addr", addr, "-local-shards", "-1")
	cmd.Env = append(os.Environ(), "GTWD_TEST_MAIN=1")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exited := make(chan struct{})
	go func() {
		exitErr = cmd.Wait()
		close(exited)
	}()
	// stop ends gtwd if it is still running and returns its log, which
	// is safe to read only once the process is gone.
	stop := func() string {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
		return logs.String()
	}
	defer stop()

	base := "http://" + addr
	cl := &dist.Client{Base: base}
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gtwd never came up:\n%s", stop())
		}
		time.Sleep(20 * time.Millisecond)
	}
	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	go dist.NewWorker(base).Run(wctx)
	for {
		if st, err := cl.Status(ctx); err == nil && len(st.Workers) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered:\n%s", stop())
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // the worker's lease request is now held

	signalled := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("gtwd exited with %v:\n%s", exitErr, logs.String())
		}
		if d := time.Since(signalled); d > 2*time.Second {
			t.Errorf("gtwd took %v to exit after SIGTERM, want well under the 5s hold", d)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("gtwd still running 15s after SIGTERM:\n%s", stop())
	}
}
