package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/control"
)

// wireTimer wraps the control plane's in-process transport: it records a span
// per request, counts idle lease polls, and re-decodes and re-encodes every
// frame it carries to time the gob frame codec on the real messages. Agents
// call it concurrently.
type wireTimer struct {
	next   http.RoundTripper
	tr     *Tracer
	parent int

	mu        sync.Mutex
	requests  int
	leases    int
	idlePolls int
	frames    int
	encodeNs  int64
	decodeNs  int64
}

func (w *wireTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	var reqBody []byte
	if req.Body != nil {
		reqBody, _ = io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	start := time.Now()
	resp, err := w.next.RoundTrip(req)
	end := time.Now()
	if err != nil {
		return resp, err
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body = io.NopCloser(bytes.NewReader(respBody))

	path := strings.TrimPrefix(req.URL.Path, "/v1/")
	if resp.StatusCode != http.StatusOK {
		// An agent asking for the baseline before the campaign has started
		// is told to come back; that is not a baseline fetch.
		path += "_retry"
	}
	w.tr.Add(w.parent, "control."+path, start, end)
	idle := false
	w.recode(reqBody)
	if msg := w.recode(respBody); msg != nil {
		_, idle = msg.(*control.NoWork)
	}
	w.mu.Lock()
	w.requests++
	if path == "lease" {
		w.leases++
		if idle {
			w.idlePolls++
		}
	}
	w.mu.Unlock()
	return resp, nil
}

// recode decodes one frame and encodes it again, timing both. A body that is
// not a frame (an HTTP error text) is skipped.
func (w *wireTimer) recode(body []byte) any {
	if len(body) == 0 {
		return nil
	}
	t0 := time.Now()
	msg, err := control.DecodeFrame(bytes.NewReader(body))
	t1 := time.Now()
	if err != nil {
		return nil
	}
	if _, err := control.EncodeFrame(io.Discard, msg); err != nil {
		return nil
	}
	t2 := time.Now()
	w.mu.Lock()
	w.frames++
	w.decodeNs += t1.Sub(t0).Nanoseconds()
	w.encodeNs += t2.Sub(t1).Nanoseconds()
	w.mu.Unlock()
	return msg
}
