package main

import (
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/fleetapi"
	"repro/internal/fleetd"
)

// pollEvery is the WaitRun/WaitFleet cadence. The client's default of 100 ms
// would round every pass's wall time up by 50 ms on average.
const pollEvery = 5 * time.Millisecond

// instance is one in-process fleetd with a client for it.
type instance struct {
	srv    *fleetd.Server
	ts     *httptest.Server // nil when the handler is called in process
	client *fleetapi.Client
}

// handlerTransport serves requests by calling the handler on the caller's
// goroutine: the whole fleetd request path with no socket under it.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newInstance builds a fleetd instance over the run's model. With sockets it
// listens on loopback and the client keeps at most P connections alive.
func newInstance(r *run, o fleetd.Options, sockets bool) *instance {
	o.Factory = r.factory
	o.ModelParams = modelParams
	in := &instance{srv: fleetd.New(o)}
	h := in.srv.Handler()
	if !sockets {
		in.client = fleetapi.NewClient("http://fleetd.bench",
			fleetapi.WithHTTPClient(&http.Client{Transport: handlerTransport{h}}))
		return in
	}
	in.ts = httptest.NewServer(h)
	tr := &http.Transport{MaxConnsPerHost: r.opt.procs, MaxIdleConnsPerHost: r.opt.procs}
	in.client = fleetapi.NewClient(in.ts.URL, fleetapi.WithHTTPClient(&http.Client{Transport: tr}))
	return in
}

// close stops the instance's workers and its listener.
func (in *instance) close() {
	in.srv.CancelRuns()
	if in.ts != nil {
		in.client.HTTPClient.CloseIdleConnections()
		in.ts.Close()
	}
}
