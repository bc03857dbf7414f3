package control

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
)

// NewHandler exposes the controller over HTTP. Every endpoint exchanges one
// wire frame per request/response body; agents always dial these endpoints
// outbound, so the control plane is the only listening socket in a
// distributed deployment.
func NewHandler(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		hello, _, err := decodeAs[*Hello](r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(c, w, c.Register(hello))
	})
	mux.HandleFunc("POST /v1/baseline", func(w http.ResponseWriter, r *http.Request) {
		req, _, err := decodeAs[*BaselineRequest](r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b, err := c.BaselinePayload(req)
		if errors.Is(err, ErrNoCampaign) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(c, w, b)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		req, _, err := decodeAs[*LeaseRequest](r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		msg, err := c.LeaseNext(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(c, w, msg)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		hb, _, err := decodeAs[*Heartbeat](r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ack, err := c.HeartbeatRenew(hb)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(c, w, ack)
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		sr, n, err := decodeAs[*ShardResult](r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ack, err := c.SubmitResult(sr, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(c, w, ack)
	})
	return mux
}

// decodeAs decodes the request body's single frame as a specific payload and
// reports the frame's size on the wire.
func decodeAs[T any](r *http.Request) (T, int, error) {
	var zero T
	msg, n, err := decodeFrame(r.Body)
	if err != nil {
		return zero, 0, err
	}
	typed, ok := msg.(T)
	if !ok {
		return zero, 0, fmt.Errorf("control: expected %T, got %T", zero, msg)
	}
	return typed, n, nil
}

// reply frames msg in full before answering, so a message that cannot be
// framed becomes a 500 carrying the cause instead of an empty 200, and the
// frame's bytes are accounted once, here, where they cross.
func reply(c *Controller, w http.ResponseWriter, msg any) {
	var frame bytes.Buffer
	n, err := EncodeFrame(&frame, msg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.sent(msg, n)
	w.Header().Set("Content-Type", "application/x-dice-frame")
	// A failed write means the agent hung up; its retry, or the lease
	// expiring, is the recovery.
	_, _ = w.Write(frame.Bytes())
}
