package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleetapi"
	"repro/internal/obs"
)

// gateWriter is a log sink that blocks the first write containing marker
// until release closes — it parks an execute goroutine inside its finish
// bookkeeping, after the outcome is recorded.
type gateWriter struct {
	marker  string
	blocked chan struct{} // closed when the marked write arrives
	release chan struct{}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), g.marker) {
		select {
		case <-g.blocked:
		default:
			close(g.blocked)
			<-g.release
		}
	}
	return len(p), nil
}

// TestDoneMeansDone: a terminal state in the status must already mean
// terminal everywhere. With each kind's execute goroutine parked in the log
// line it writes after recording the outcome (metrics export and logging
// still ahead of it), the artifacts must be served, the admission slot free,
// and DELETE must evict — not 409, 409 and a 202 cancel.
func TestDoneMeansDone(t *testing.T) {
	for _, k := range surfaceKinds {
		t.Run(k.plural, func(t *testing.T) {
			marker := map[string]string{"run": "run 0 finished", "experiment": "experiment 0 done", "fleet": "fleet 0 done"}[k.name]
			gate := &gateWriter{marker: marker, blocked: make(chan struct{}), release: make(chan struct{})}
			log, err := obs.NewLogger(gate, obs.LevelInfo, obs.FormatText)
			if err != nil {
				t.Fatal(err)
			}
			s := testServer(4)
			s.log = log
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			t.Cleanup(func() { close(gate.release) })
			// A parked logger must fail the request that logs, not hang it.
			client := &http.Client{Timeout: 10 * time.Second}
			do := func(method, path, body string) int {
				t.Helper()
				req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
				resp, err := client.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp.StatusCode
			}

			coll := "/v1/" + k.plural
			if code := do("POST", coll, k.small); code != http.StatusCreated {
				t.Fatalf("create: %d", code)
			}
			select {
			case <-gate.blocked:
			case <-time.After(30 * time.Second):
				t.Fatal("execute never reached its finish log line")
			}
			var st struct {
				State string `json:"state"`
			}
			if getJSON(t, ts.URL+coll+"/0", &st); st.State != fleetapi.StateDone {
				t.Fatalf("state %q with the outcome recorded", st.State)
			}
			for _, leaf := range k.leaves {
				if code := do("GET", coll+"/0/"+leaf, ""); code != http.StatusOK {
					t.Fatalf("GET %s of a done %s: %d", leaf, k.name, code)
				}
			}
			if code := do("DELETE", coll+"/0", ""); code != http.StatusNoContent {
				t.Fatalf("DELETE of a done %s: %d, want 204", k.name, code)
			}
			// The follow-up create would log "started"; park-proof it by
			// checking admission directly.
			s.mu.Lock()
			busy := s.busyLocked()
			s.mu.Unlock()
			if busy {
				t.Fatalf("a done %s still holds the admission slot", k.name)
			}
		})
	}
}

// TestRequestBodyBound: every POST body is read through one 1 MiB bound, so
// a padded body is a 400, not an all-defaults job.
func TestRequestBodyBound(t *testing.T) {
	_, c := v1Fixture(t, 4)
	padded := "{" + strings.Repeat(" ", 2<<20) + "}"
	for _, route := range []string{"/v1/runs", "/v1/shards", "/v1/experiments", "/v1/fleets", "/v1/fleetshards", "/v1/serve"} {
		resp, err := http.Post(c.BaseURL+route, "application/json", strings.NewReader(padded))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error fleetapi.Error `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || env.Error.Code != fleetapi.CodeBadRequest ||
			!strings.Contains(env.Error.Message, "request body too large") {
			t.Fatalf("POST %s with a 2 MiB body: %d %+v (%v)", route, resp.StatusCode, env.Error, err)
		}
	}
}

// TestHistoryRing: a history of 2 keeps the last two runs, oldest first,
// under their original ids; the evicted id 404s.
func TestHistoryRing(t *testing.T) {
	_, c := v1Fixture(t, 2)
	ctx := context.Background()
	for i, runtime := range []string{"", "int8", "pruned"} {
		spec := testSpec
		spec.Runtime = runtime
		st, err := c.CreateRun(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != i {
			t.Fatalf("run %d got id %d", i, st.ID)
		}
		if _, err := c.WaitRun(ctx, st.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := c.ListRuns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].ID != 1 || runs[1].ID != 2 {
		t.Fatalf("history %+v", runs)
	}
	if runs[0].Spec.Runtime != "int8" || runs[1].Spec.Runtime != "pruned" {
		t.Fatalf("history specs %+v", runs)
	}
	if _, err := c.RunStats(ctx, 1); err != nil {
		t.Fatalf("remembered run stats: %v", err)
	}
	if _, err := c.RunStats(ctx, 0); err == nil {
		t.Fatal("evicted run served stats")
	} else if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusNotFound {
		t.Fatalf("evicted run error %v", err)
	}
}

// TestPreV1SurfaceGone: the flat pre-/v1 paths are ordinary unmatched paths
// now — the JSON 404 of the catch-all, whatever the method.
func TestPreV1SurfaceGone(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()
	st, err := c.CreateRun(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitRun(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][2]string{
		{"POST", "/run?devices=4&items=1"}, {"GET", "/stats"}, {"GET", "/runs"}, {"GET", "/runs/0"}, {"GET", "/runs/"},
	} {
		path, _, _ := strings.Cut(probe[1], "?")
		surfaceCheck(t, c.BaseURL, surfaceStep{method: probe[0], path: probe[1],
			status: 404, code: "not_found", message: "no such endpoint " + path})
	}
}

// fuzzBody is decodeStrict for one request body type, its result widened to
// the interface so the six types fit one table.
func fuzzBody[T validator](what string) func(http.ResponseWriter, *http.Request) (validator, *fleetapi.Error) {
	return func(w http.ResponseWriter, req *http.Request) (validator, *fleetapi.Error) {
		return decodeStrict[T](w, req, what)
	}
}

var fuzzBodies = []func(http.ResponseWriter, *http.Request) (validator, *fleetapi.Error){
	fuzzBody[fleetapi.RunSpec]("run spec"),
	fuzzBody[fleetapi.ShardSpec]("shard spec"),
	fuzzBody[fleetapi.ExperimentSpec]("experiment spec"),
	fuzzBody[fleetapi.FleetSpec]("fleet spec"),
	fuzzBody[fleetapi.FleetShardSpec]("fleet shard spec"),
	fuzzBody[fleetapi.ServeRequest]("serve request"),
}

// FuzzStrictDecode feeds arbitrary bytes through the one body decoder and
// Validate for every request type: it must never panic, a refusal must be a
// 400, and an accepted body must re-marshal into a body that is accepted
// again. The serve route's own parser must answer every input as decodeStrict
// does: the same ServeRequest and the same refusal. The seed corpus under
// testdata/fuzz is the README's and the smoke script's request bodies, plus
// one serve body for each case the serve parser reads or leaves to
// decodeStrict; plain `go test` replays it.
func FuzzStrictDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	for _, body := range serveBodies {
		f.Add([]byte(body))
	}
	// Format strings: accepted spellings, refused ones, and an axis that
	// names one format twice.
	for _, format := range []string{"JPEG:85", "jpeg:085", "jpeg:0", "jpeg:101", "raw:", "raw:DNG", "png:1", "jpeg:85 ", "native", "webp:75", "heif:1", "raw:adobe"} {
		f.Add([]byte(`{"devices":2,"format":"` + format + `"}`))
		f.Add([]byte(`{"base":{"devices":2},"axes":{"format":["png","` + format + `"]}}`))
	}
	f.Add([]byte(`{"base":{"devices":2},"axes":{"format":["jpeg:85","JPEG:85"]}}`))
	f.Add([]byte(`{"devices":2,"windows":2,"format":"raw:imagemagick"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkServeDecode(t, func() io.Reader { return bytes.NewReader(data) })
		for _, decode := range fuzzBodies {
			post := func(body []byte) (validator, *fleetapi.Error) {
				return decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)))
			}
			v, apiErr := post(data)
			if apiErr != nil {
				if apiErr.Status != http.StatusBadRequest {
					t.Fatalf("refusal is not a 400: %+v", apiErr)
				}
				continue
			}
			again, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("accepted %T does not marshal: %v", v, err)
			}
			if _, apiErr := post(again); apiErr != nil {
				t.Fatalf("accepted %T re-marshals to %s, which is refused: %v", v, again, apiErr)
			}
		}
	})
}
