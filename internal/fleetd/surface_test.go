package fleetd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// surfaceStep is one request against the /v1 surface and the reply it must
// get: the status code and, for error replies, the envelope's code and exact
// message. Steps of one table run in order against one instance.
type surfaceStep struct {
	method, path, body string
	status             int
	code, message      string // error envelope; both empty for success replies
	// waitTerminal, when set, is a resource path polled until its state
	// leaves "running" before the request is sent.
	waitTerminal string
}

// surfaceKind describes one resource kind to surfaceSteps: the names that
// appear in paths and messages, a spec that finishes in milliseconds, one
// that runs for seconds, and its artifact leaves.
type surfaceKind struct {
	plural, name string
	small, long  string
	invalid      string // a spec Validate rejects, and the message it gives
	invalidMsg   string
	leaves       []string
	// liveArtifacts: the kind serves its artifact while running and after a
	// cancel (run stats are partial snapshots); the others refuse with 409
	// and run_failed.
	liveArtifacts bool
}

var surfaceKinds = []surfaceKind{
	{
		plural: "runs", name: "run",
		small:         `{"devices":4,"items":1,"angles":[0],"seed":3,"workers":2}`,
		long:          `{"devices":1500,"items":1,"angles":[0],"seed":3,"workers":1}`,
		invalid:       `{"devices":-1}`,
		invalidMsg:    "devices=-1 is negative",
		leaves:        []string{"stats", "trace"},
		liveArtifacts: true,
	},
	{
		plural: "experiments", name: "experiment",
		small:      `{"base":{"devices":4,"items":1,"angles":[0],"seed":3,"workers":2},"axes":{"runtime":["float32","int8"]}}`,
		long:       `{"base":{"devices":1500,"items":1,"angles":[0],"seed":3,"workers":1},"axes":{"runtime":["float32","int8"]}}`,
		invalid:    `{"base":{"devices":-1},"axes":{"runtime":["int8"]}}`,
		invalidMsg: "arm runtime=int8: devices=-1 is negative",
		leaves:     []string{"report", "arms"},
	},
	{
		plural: "fleets", name: "fleet",
		small:      `{"devices":4,"items":1,"angles":[0],"seed":3,"workers":2,"windows":2}`,
		long:       `{"devices":300,"items":1,"angles":[0],"seed":3,"workers":1,"windows":8}`,
		invalid:    `{"devices":4,"windows":-1}`,
		invalidMsg: "windows=-1 is negative",
		leaves:     []string{"report", "windows", "drift"},
	},
}

// surfaceSteps is the kind × route × method table for one resource kind.
func surfaceSteps(k surfaceKind) []surfaceStep {
	coll := "/v1/" + k.plural
	res := func(id any, leaf ...string) string {
		return fmt.Sprintf("%s/%v", coll, id) + strings.Join(append([]string{""}, leaf...), "/")
	}
	var steps []surfaceStep
	add := func(s ...surfaceStep) { steps = append(steps, s...) }

	// 405: the method is judged before the id, so unknown ids get it too.
	add(surfaceStep{method: "PUT", path: coll, status: 405, code: "method_not_allowed", message: "use GET or POST"},
		surfaceStep{method: "POST", path: res(0), status: 405, code: "method_not_allowed", message: "use GET or DELETE"})
	for _, leaf := range k.leaves {
		add(surfaceStep{method: "POST", path: res(0, leaf), status: 405, code: "method_not_allowed", message: "use GET"})
	}
	// Bad and unknown ids, on the resource and on every artifact.
	badID := fmt.Sprintf("bad %s id %q", k.name, "xyz")
	unknown := fmt.Sprintf("%s 7 not in history", k.name)
	add(surfaceStep{method: "GET", path: res("xyz"), status: 400, code: "bad_request", message: badID},
		surfaceStep{method: "DELETE", path: res("xyz"), status: 400, code: "bad_request", message: badID},
		surfaceStep{method: "GET", path: res(7), status: 404, code: "not_found", message: unknown},
		surfaceStep{method: "DELETE", path: res(7), status: 404, code: "not_found", message: unknown})
	for _, leaf := range k.leaves {
		add(surfaceStep{method: "GET", path: res("xyz", leaf), status: 400, code: "bad_request", message: badID},
			surfaceStep{method: "GET", path: res(7, leaf), status: 404, code: "not_found", message: unknown})
	}
	// Strict decode and validation.
	add(surfaceStep{method: "POST", path: coll, body: `{"bogus":1}`, status: 400, code: "bad_request",
		message: fmt.Sprintf("bad %s spec: json: unknown field %q", k.name, "bogus")},
		surfaceStep{method: "POST", path: coll, status: 400, code: "bad_request",
			message: fmt.Sprintf("bad %s spec: EOF", k.name)},
		surfaceStep{method: "POST", path: coll, body: k.invalid, status: 400, code: "bad_request", message: k.invalidMsg})

	// Happy path: create, read, list, artifacts, evict.
	add(surfaceStep{method: "POST", path: coll, body: k.small, status: 201},
		surfaceStep{method: "GET", path: res(0), status: 200, waitTerminal: res(0)},
		surfaceStep{method: "GET", path: coll, status: 200})
	for _, leaf := range k.leaves {
		add(surfaceStep{method: "GET", path: res(0, leaf), status: 200})
	}
	add(surfaceStep{method: "DELETE", path: res(0), status: 204},
		surfaceStep{method: "GET", path: res(0), status: 404, code: "not_found",
			message: fmt.Sprintf("%s 0 not in history", k.name)})

	// A long job: admission conflict, artifacts while running, cancel,
	// artifacts after the cancel, evict.
	add(surfaceStep{method: "POST", path: coll, body: k.long, status: 201},
		surfaceStep{method: "POST", path: coll, body: k.small, status: 409, code: "conflict",
			message: "a fleet run or experiment is already in flight"})
	for _, leaf := range k.leaves {
		s := surfaceStep{method: "GET", path: res(1, leaf), status: 200}
		if !k.liveArtifacts {
			s.status, s.code, s.message = 409, "conflict", fmt.Sprintf("%s 1 is still running", k.name)
		}
		add(s)
	}
	add(surfaceStep{method: "DELETE", path: res(1), status: 202})
	for i, leaf := range k.leaves {
		s := surfaceStep{method: "GET", path: res(1, leaf), status: 200}
		if !k.liveArtifacts {
			s.status, s.code, s.message = 500, "run_failed", fmt.Sprintf("%s 1 cancelled before completion", k.name)
		}
		if i == 0 {
			s.waitTerminal = res(1)
		}
		add(s)
	}
	add(surfaceStep{method: "DELETE", path: res(1), status: 204})
	return steps
}

// surfaceFlatSteps covers the routes that are not resource kinds.
func surfaceFlatSteps() []surfaceStep {
	var steps []surfaceStep
	for route, what := range map[string]string{
		"/v1/shards":      "shard spec",
		"/v1/fleetshards": "fleet shard spec",
		"/v1/serve":       "serve request",
	} {
		steps = append(steps,
			surfaceStep{method: "GET", path: route, status: 405, code: "method_not_allowed", message: "use POST"},
			surfaceStep{method: "POST", path: route, body: `{"bogus":1}`, status: 400, code: "bad_request",
				message: fmt.Sprintf("bad %s: json: unknown field %q", what, "bogus")},
			surfaceStep{method: "POST", path: route, status: 400, code: "bad_request",
				message: fmt.Sprintf("bad %s: EOF", what)})
	}
	return append(steps,
		surfaceStep{method: "POST", path: "/v1/shards", body: `{"devices":4,"device_lo":3,"device_hi":2}`,
			status: 400, code: "bad_request", message: "bad device range 3..2 (want 0 <= lo < hi <= 4)"},
		surfaceStep{method: "POST", path: "/v1/fleetshards", body: `{"devices":4,"device_lo":3,"device_hi":2}`,
			status: 400, code: "bad_request", message: "bad device range 3..2 (want 0 <= lo < hi <= 4)"},
		surfaceStep{method: "POST", path: "/v1/serve", body: `{"angle":-1}`,
			status: 400, code: "bad_request", message: "bad angle -1 (want 0..4)"},
		surfaceStep{method: "POST", path: "/v1/slo", status: 405, code: "method_not_allowed", message: "use GET"},
		surfaceStep{method: "POST", path: "/metrics", status: 405, code: "method_not_allowed", message: "use GET"},
		surfaceStep{method: "POST", path: "/v1/traces/abc", status: 405, code: "method_not_allowed", message: "use GET"},
		surfaceStep{method: "GET", path: "/v1/traces/abc", status: 200},
		surfaceStep{method: "POST", path: "/v1/runs/0/stream", status: 405, code: "method_not_allowed", message: "use GET"},
		surfaceStep{method: "GET", path: "/v1/runs/xyz/stream", status: 400, code: "bad_request", message: `bad run id "xyz"`},
		surfaceStep{method: "GET", path: "/v1/runs/7/stream", status: 404, code: "not_found", message: "run 7 not in history"},
		surfaceStep{method: "GET", path: "/bogus", status: 404, code: "not_found", message: "no such endpoint /bogus"},
	)
}

// TestV1SurfaceGolden pins the /v1 surface — status code, envelope code and
// exact message per kind × route × method — so a change to the machinery
// behind the handlers cannot move it unnoticed.
func TestV1SurfaceGolden(t *testing.T) {
	tables := map[string][]surfaceStep{"flat": surfaceFlatSteps()}
	for _, k := range surfaceKinds {
		tables[k.plural] = surfaceSteps(k)
	}
	for name, steps := range tables {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, c := v1Fixture(t, 4)
			for _, step := range steps {
				if step.waitTerminal != "" {
					surfaceWait(t, c.BaseURL+step.waitTerminal)
				}
				surfaceCheck(t, c.BaseURL, step)
			}
		})
	}
}

func surfaceCheck(t *testing.T, base string, step surfaceStep) {
	t.Helper()
	var body io.Reader
	if step.body != "" {
		body = strings.NewReader(step.body)
	}
	req, err := http.NewRequest(step.method, base+step.path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if step.code != "" {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s %s: reply is not an envelope: %v (%s)", step.method, step.path, err, raw)
		}
	}
	if resp.StatusCode != step.status || env.Error.Code != step.code || env.Error.Message != step.message {
		t.Fatalf("%s %s %s:\n got %d %q %q\nwant %d %q %q\nbody %s", step.method, step.path, step.body,
			resp.StatusCode, env.Error.Code, env.Error.Message, step.status, step.code, step.message, raw)
	}
}

// surfaceWait polls a resource until its state leaves "running".
func surfaceWait(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
		}
		if code := getJSON(t, url, &st); code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, code)
		}
		if st.State != "running" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never left running", url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
