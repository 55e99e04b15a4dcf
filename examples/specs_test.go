// Package examples holds, in specs/, the paper's studies as data instead of
// programs: each file is the exact body a user POSTs to fleetd,
//
//	go run ./cmd/fleetd -model bench/testdata/base.model &
//	curl -d @examples/specs/scale.experiment.json localhost:8470/v1/experiments
//
// and TestSpecs pins what each one produces on the committed model: an
// experiment's report and its per-arm stats (/arms), a run's stats, a
// continuous fleet's report and drift.
package examples

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/lab"
)

// modelPath is the committed snapshot of lab.DefaultBaseModel().
const modelPath = "../bench/testdata/base.model"

// specKind is what a spec file's suffix, <name>.<kind>.json, selects: the
// collection it is POSTed to, the artifacts compared with goldens (the
// first with <name>.golden, any other with <name>.<artifact>.golden), and
// the strict decode fleetd applies to the body. A sharded kind is run a
// second time through a coordinator over two peers, against the same
// goldens.
type specKind struct {
	collection string
	artifacts  []string
	decode     func([]byte) error
	sharded    bool
}

var specKinds = map[string]specKind{
	"experiment": {"/v1/experiments", []string{"report", "arms"}, strictDecode[fleetapi.ExperimentSpec], false},
	"run":        {"/v1/runs", []string{"stats"}, strictDecode[fleetapi.RunSpec], true},
	"fleet":      {"/v1/fleets", []string{"report", "drift"}, strictDecode[fleetapi.FleetSpec], true},
}

// shardedSpecs are specs of an unsharded kind that also take the two-peer
// leg: the compression and OS experiments' format arms and the stability
// experiment's model arms cross the shard wire (each peer resolves a model
// for itself; in one process they share the fine-tune cache).
var shardedSpecs = map[string]bool{"compression.experiment": true, "os.experiment": true, "stability.experiment": true}

// strictDecode decodes a body as fleetd does: unknown fields refused, then
// Validate.
func strictDecode[T interface{ Validate() error }](body []byte) error {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	return v.Validate()
}

// TestSpecs posts every specs/*.json, byte for byte, to a fresh fleetd
// serving the committed model and compares its artifacts with
// testdata/<name>[.<artifact>].golden. A golden is what curl prints for
// /v1/<collection>/0/<artifact> once the spec has run on a freshly started
// fleetd -model bench/testdata/base.model; a sharded spec's must also be what
// a coordinator over two peers prints, since a device's cells do not depend on
// the instance that computes them. Under -short each file is only decoded and
// validated. A golden that is no spec's artifact fails the test, so a
// renamed or deleted spec cannot leave a stale one behind.
func TestSpecs(t *testing.T) {
	files, err := filepath.Glob("specs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	ours := map[string]bool{}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		for i, artifact := range specKinds[strings.TrimPrefix(filepath.Ext(name), ".")].artifacts {
			ours[goldenName(name, i, artifact)] = true
		}
	}
	goldens, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, golden := range goldens {
		if !ours[filepath.Base(golden)] {
			t.Errorf("%s is the golden of no artifact of a spec in specs/", golden)
		}
	}
	var factory fleet.BackendFactory
	if !testing.Short() {
		factory = loadModel(t)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			kind, ok := specKinds[strings.TrimPrefix(filepath.Ext(name), ".")]
			if !ok {
				t.Fatalf("%s: no kind named by its suffix", path)
			}
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := kind.decode(body); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if testing.Short() {
				return
			}
			want := map[string][]byte{}
			for i, artifact := range kind.artifacts {
				if want[artifact], err = os.ReadFile(filepath.Join("testdata", goldenName(name, i, artifact))); err != nil {
					t.Fatal(err)
				}
			}
			topologies := map[string][]string{"single instance": nil}
			if kind.sharded || shardedSpecs[name] {
				topologies["coordinator over two peers"] = []string{serve(t, fleetd.Options{Factory: factory}), serve(t, fleetd.Options{Factory: factory})}
			}
			for topology, peers := range topologies {
				url := serve(t, fleetd.Options{Factory: factory, Peers: peers})
				for artifact, got := range runSpec(t, url+kind.collection, kind.artifacts, body) {
					if !bytes.Equal(got, want[artifact]) {
						t.Errorf("%s on a %s: %s differs from its golden:\n got %s\nwant %s", path, topology, artifact, got, want[artifact])
					}
				}
			}
		})
	}
}

// goldenName is the golden file of a spec's i-th artifact: <name>.golden for
// the first, <name>.<artifact>.golden for any other.
func goldenName(name string, i int, artifact string) string {
	if i == 0 {
		return name + ".golden"
	}
	return name + "." + artifact + ".golden"
}

// serve starts a fleetd instance for the rest of the test and returns its URL.
func serve(t *testing.T, opts fleetd.Options) string {
	t.Helper()
	ts := httptest.NewServer(fleetd.New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// loadModel reads the committed snapshot; it never trains.
func loadModel(t *testing.T) fleet.BackendFactory {
	t.Helper()
	m, err := lab.LoadBaseModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.BackendReplicator(lab.DefaultBaseModel().Arch, m)
}

// runSpec POSTs body to collection, waits for the resource to finish and
// returns its artifacts.
func runSpec(t *testing.T, collection string, artifacts []string, body []byte) map[string][]byte {
	t.Helper()
	// fetch reads a reply's body and fails the test unless the request
	// succeeded.
	fetch := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL, resp.Status, data)
		}
		return data
	}
	var st struct { // what every kind's status has
		ID           int
		State, Error string
	}
	status := func(data []byte) {
		t.Helper()
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("%v: %s", err, data)
		}
	}
	status(fetch(http.Post(collection, "application/json", bytes.NewReader(body))))
	resource := fmt.Sprintf("%s/%d", collection, st.ID)
	for st.State == fleetapi.StatePending || st.State == fleetapi.StateRunning {
		time.Sleep(50 * time.Millisecond)
		status(fetch(http.Get(resource)))
	}
	if st.State != fleetapi.StateDone {
		t.Fatalf("%s ended %s: %s", resource, st.State, st.Error)
	}
	got := map[string][]byte{}
	for _, artifact := range artifacts {
		got[artifact] = fetch(http.Get(resource + "/" + artifact))
	}
	return got
}
