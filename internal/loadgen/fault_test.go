package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/fleetapi"
)

// transportFault is what faultTransport does to one request.
type transportFault int

const (
	faultNone      transportFault = iota
	faultDrop                     // fail before any reply reaches the client
	faultTruncate                 // forward, then end the reply body after a few bytes
	faultStatus503                // answer an "unavailable" envelope without forwarding
	faultHang                     // hold the request until its context ends
)

// faultTransport is an http.RoundTripper in front of a live server. It keys
// each request's fault on the body's device field, so the outcome of every
// arrival is fixed however Fire's goroutines interleave.
type faultTransport struct {
	next   http.RoundTripper
	faults map[int]transportFault // by device
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	var serve struct {
		Device int `json:"device"`
	}
	err = json.NewDecoder(body).Decode(&serve)
	body.Close()
	if err != nil {
		return nil, err
	}
	fault := f.faults[serve.Device]
	switch fault {
	case faultDrop:
		req.Body.Close()
		return nil, errors.New("connection reset before any reply")
	case faultStatus503:
		req.Body.Close()
		rec := httptest.NewRecorder()
		fleetapi.WriteError(rec, &fleetapi.Error{Status: http.StatusServiceUnavailable, Code: fleetapi.CodeUnavailable, Message: "injected"})
		return rec.Result(), nil
	case faultHang:
		req.Body.Close()
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	resp, err := f.next.RoundTrip(req)
	if err == nil && fault == faultTruncate {
		resp.Body = &truncatedBody{ReadCloser: resp.Body, left: 10}
	}
	return resp, err
}

// truncatedBody passes through the first left bytes of a body, then fails
// as a connection closed mid-reply does.
type truncatedBody struct {
	io.ReadCloser
	left int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := b.ReadCloser.Read(p[:min(len(p), b.left)])
	b.left -= n
	return n, err
}

// TestFireUnderTransportFaults: each arrival of one concurrent burst meets
// its own transport fault. Every event keeps its schedule half; a dropped,
// truncated or hung request is a transport failure with no status, the
// injected 503 keeps its status and code, the clean request is served, and
// the report counts four errors beside one served request.
func TestFireUnderTransportFaults(t *testing.T) {
	ts, classes := liveServer(t)
	faults := map[int]transportFault{
		1: faultNone, 2: faultDrop, 3: faultTruncate, 4: faultStatus503, 5: faultHang,
	}
	client := fleetapi.NewClient(ts.URL, fleetapi.WithHTTPClient(&http.Client{
		Transport: &faultTransport{next: ts.Client().Transport, faults: faults},
	}))
	var arrivals []Arrival
	for device := 1; device <= len(faults); device++ {
		arrivals = append(arrivals, Arrival{Cohort: "faults", Class: "easy", Seq: device - 1, Device: device, Item: 1, Items: 4})
	}

	const timeout = 300 * time.Millisecond
	began := time.Now()
	events := Fire(context.Background(), client, 42, arrivals, FireOptions{Timeout: timeout})
	if elapsed := time.Since(began); elapsed > 10*timeout {
		t.Fatalf("Fire took %v with a %v timeout", elapsed, timeout)
	}
	if got := ArrivalsFromEvents(events); !reflect.DeepEqual(got, arrivals) {
		t.Fatalf("schedule not kept:\n got %+v\nwant %+v", got, arrivals)
	}
	for _, e := range events {
		wantStatus, wantCode := 0, CodeTransport
		switch faults[e.Device] {
		case faultNone:
			wantStatus, wantCode = http.StatusOK, ""
		case faultStatus503:
			wantStatus, wantCode = http.StatusServiceUnavailable, fleetapi.CodeUnavailable
		}
		if e.Status != wantStatus || e.Code != wantCode {
			t.Errorf("device %d: status %d code %q, want %d %q", e.Device, e.Status, e.Code, wantStatus, wantCode)
		}
		if !e.Served() && e.LatencyNanos != 0 {
			t.Errorf("device %d: a failed request reports latency %d", e.Device, e.LatencyNanos)
		}
	}
	for _, row := range Report(classes, events).Classes {
		if row.Class != "easy" {
			continue
		}
		if row.Requests != 5 || row.Served != 1 || row.Errors != 4 || row.ShedRate+row.ShedQueue != 0 {
			t.Fatalf("report row %+v, want 5 requests: 1 served, 4 errors", row)
		}
		return
	}
	t.Fatal("report has no easy row")
}
