package main

import (
	"io"
	"net/http"
	"sync/atomic"
)

// countingTransport counts the requests and bytes that pass through an
// http.Client, and how many lease requests a worker made and how many
// were granted (200 rather than 204).
type countingTransport struct {
	base http.RoundTripper

	requests, bytes          atomic.Int64
	leaseAsked, leaseGranted atomic.Int64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	lease := req.URL.Path == "/v1/workers/lease"
	if lease {
		t.leaseAsked.Add(1)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if lease && resp.StatusCode == http.StatusOK {
		t.leaseGranted.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

// countingBody adds the bytes read from a response body to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// httpCounts is a snapshot of a countingTransport.
type httpCounts struct{ requests, bytes, leaseAsked, leaseGranted int64 }

func (t *countingTransport) snapshot() httpCounts {
	return httpCounts{t.requests.Load(), t.bytes.Load(), t.leaseAsked.Load(), t.leaseGranted.Load()}
}

func (c httpCounts) sub(o httpCounts) httpCounts {
	return httpCounts{c.requests - o.requests, c.bytes - o.bytes, c.leaseAsked - o.leaseAsked, c.leaseGranted - o.leaseGranted}
}

func (c httpCounts) add(o httpCounts) httpCounts {
	return httpCounts{c.requests + o.requests, c.bytes + o.bytes, c.leaseAsked + o.leaseAsked, c.leaseGranted + o.leaseGranted}
}
