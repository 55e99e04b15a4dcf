package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shardKind is one of the sweep's two views as the shard-state tests drive
// it: execute a device range, ship its state through the wire, merge states,
// and compare snapshot JSON.
type shardKind struct {
	name    string
	devices int
	windows int
	// run executes devices [lo, hi) and returns the runner's own snapshot
	// JSON and its shard state after a wire round trip.
	run func(t *testing.T, lo, hi int) (snapshot []byte, st *ContinuousState)
	// merged renders the snapshot JSON of merged shard states.
	merged func(states ...*ContinuousState) ([]byte, error)
}

// shipped round-trips a finished runner's state through its wire bytes.
func shipped(t *testing.T, r interface{ MarshalState() ([]byte, error) }) *ContinuousState {
	t.Helper()
	data, err := r.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	st, err := UnmarshalContinuousState(data)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// shardKinds builds both kinds: the one-shot run of runCfg and the
// continuous fleet fleetCfg.
func shardKinds(runCfg Config, fleetCfg ContinuousConfig) []shardKind {
	runCfg, fleetCfg = runCfg.WithDefaults(), fleetCfg.WithDefaults()
	return []shardKind{
		{
			name: "run", devices: runCfg.Devices, windows: 1,
			run: func(t *testing.T, lo, hi int) ([]byte, *ContinuousState) {
				c := runCfg
				c.DeviceLo, c.DeviceHi = lo, hi
				r := NewRunner(c, testFactory())
				return r.Run().JSON(), shipped(t, r)
			},
			merged: func(states ...*ContinuousState) ([]byte, error) {
				s, _, err := MergedRun(runCfg, states...)
				return s.JSON(), err
			},
		},
		{
			name: "fleet", devices: fleetCfg.Fleet.Devices, windows: fleetCfg.Windows,
			run: func(t *testing.T, lo, hi int) ([]byte, *ContinuousState) {
				c := fleetCfg
				c.Fleet.DeviceLo, c.Fleet.DeviceHi = lo, hi
				r := runContinuous(t, c)
				return r.Report().JSON(), shipped(t, r)
			},
			merged: func(states ...*ContinuousState) ([]byte, error) {
				rep, err := MergedFleetReport(fleetCfg, states...)
				return rep.JSON(), err
			},
		},
	}
}

// TestShardedRunMatchesSingle is the distributed-shard property at the
// fleet layer, for both kinds of sweep: split the device range into shards
// (even, uneven and empty ones), execute each with its own runner, merge the
// shipped states — the merged snapshot JSON must be byte-identical to a
// single runner executing the whole range.
func TestShardedRunMatchesSingle(t *testing.T) {
	splits := map[string][][][2]int{
		"run":   {{{0, 11}, {11, 30}, {30, 30}}, {{0, 1}, {1, 29}, {29, 30}}, {{0, 15}, {15, 15}, {15, 30}}},
		"fleet": {{{0, 3}, {3, 6}}, {{0, 1}, {1, 5}, {5, 6}}},
	}
	runCfg := Config{Devices: 30, Items: 2, Angles: []int{0, 2}, Seed: 19, TopK: 3, Workers: 4}
	for _, k := range shardKinds(runCfg, contTestConfig(2)) {
		t.Run(k.name, func(t *testing.T) {
			full, _ := k.run(t, 0, k.devices)
			for _, split := range splits[k.name] {
				var states []*ContinuousState
				for _, rng := range split {
					_, st := k.run(t, rng[0], rng[1])
					if st.DeviceLo != rng[0] || st.DeviceHi != rng[1] {
						t.Fatalf("state range %d..%d, want %d..%d", st.DeviceLo, st.DeviceHi, rng[0], rng[1])
					}
					states = append(states, st)
				}
				got, err := k.merged(states...)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, full) {
					t.Fatalf("split %v: merged snapshot diverged from single run:\n%s\nvs\n%s", split, got, full)
				}
			}
		})
	}
}

// TestShardRunnerRangeScoping checks a range shard computes exactly its own
// rows: record counts scale with the range, device IDs line up with the
// full fleet's, and an empty range is a no-op run.
func TestShardRunnerRangeScoping(t *testing.T) {
	cfg := Config{Devices: 20, Items: 1, Angles: []int{1}, Seed: 7, Workers: 2, DeviceLo: 5, DeviceHi: 12}
	r := NewRunner(cfg, testFactory())
	s := r.Run()
	if done, total, _ := r.Progress(); done != 7 || total != 7 {
		t.Fatalf("progress %d/%d, want 7/7", done, total)
	}
	if s.DevicesDone != 7 || s.Records != 7 {
		t.Fatalf("shard stats devices=%d records=%d, want 7/7", s.DevicesDone, s.Records)
	}
	if s.Config.Devices != 20 {
		t.Fatalf("shard stats config devices %d, want the full fleet's 20", s.Config.Devices)
	}
	st := r.State()
	if len(st.Devices) != 7 || st.Devices[0].ID != 5 || st.Devices[6].ID != 11 {
		t.Fatalf("shard device ids %+v", st.Devices)
	}

	empty := NewRunner(Config{Devices: 20, Items: 1, Angles: []int{1}, Seed: 7, DeviceLo: 4, DeviceHi: 4}, testFactory())
	if s := empty.Run(); s.DevicesDone != 0 || s.Records != 0 {
		t.Fatalf("empty range ran devices: %+v", s)
	}
}

// TestConfigRangeDefaults pins WithDefaults' range handling: zero range
// spans the fleet, out-of-bounds ranges clamp.
func TestConfigRangeDefaults(t *testing.T) {
	c := Config{Devices: 50}.WithDefaults()
	if c.DeviceLo != 0 || c.DeviceHi != 50 {
		t.Fatalf("default range %d..%d, want 0..50", c.DeviceLo, c.DeviceHi)
	}
	c = Config{Devices: 50, DeviceLo: -3, DeviceHi: 80}.WithDefaults()
	if c.DeviceLo != 0 || c.DeviceHi != 50 {
		t.Fatalf("clamped range %d..%d, want 0..50", c.DeviceLo, c.DeviceHi)
	}
	if got := (Config{Devices: 50, DeviceLo: 10, DeviceHi: 20, Items: 2, Angles: []int{0}}).Captures(); got != 20 {
		t.Fatalf("range captures %d, want 20", got)
	}
}

// TestRunnerCancel checks cancellation semantics: a cancelled run still
// closes its done channel, skips unstarted devices, and serves a valid
// partial snapshot.
func TestRunnerCancel(t *testing.T) {
	cfg := Config{Devices: 40, Items: 1, Angles: []int{0}, Seed: 13, Workers: 1}
	r := NewRunner(cfg, testFactory())
	r.Cancel() // before Start: every device is skipped
	s := r.Run()
	if !r.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	if done, total, _ := r.Progress(); done != 0 || total != 40 {
		t.Fatalf("cancelled progress %d/%d, want 0/40", done, total)
	}
	if s.DevicesDone != 0 || s.Records != 0 {
		t.Fatalf("cancelled run produced records: %+v", s)
	}
	if st := r.State(); len(st.Devices) != 0 || st.Captures != 0 {
		t.Fatalf("cancelled run state lists %d devices and %d captures", len(st.Devices), st.Captures)
	}
}

// shardStateGoldenBytes is what testdata/shard_state.golden holds: the shard
// state of a one-shot run's devices [1, 3) and of a continuous fleet's
// devices [2, 5) on the test model, one line each.
func shardStateGoldenBytes(t *testing.T) []byte {
	t.Helper()
	run := NewRunner(Config{Devices: 4, Items: 2, Angles: []int{0, 2}, Seed: 19, Workers: 2, DeviceLo: 1, DeviceHi: 3}, testFactory())
	run.Run()
	cfg := contTestConfig(2)
	cfg.Fleet.DeviceLo, cfg.Fleet.DeviceHi = 2, 5
	var out []byte
	for _, r := range []interface{ State() *ContinuousState }{run, runContinuous(t, cfg)} {
		st := r.State()
		st.ModelSHA = ModelSHA(testFactory()) // as the shipping instance stamps it
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, data...), '\n')
	}
	return out
}

// TestMergeRefusesForeignModel holds a merge to one set of weights: two
// halves of one run that ran different model_sha are refused, the error
// naming both digests.
func TestMergeRefusesForeignModel(t *testing.T) {
	cfg := Config{Devices: 4, Items: 1, Angles: []int{0}, Seed: 5, Workers: 1}
	var states []*ContinuousState
	for i, sha := range []string{"aaaa", "bbbb"} {
		half := cfg
		half.DeviceLo, half.DeviceHi = 2*i, 2*i+2
		r := NewRunner(half, testFactory())
		r.Run()
		st := r.State()
		st.ModelSHA = sha
		states = append(states, st)
	}
	_, _, err := MergedRun(cfg, states...)
	if err == nil || !strings.Contains(err.Error(), `"aaaa"`) || !strings.Contains(err.Error(), `"bbbb"`) {
		t.Fatalf("merge of two weights' states: err %v, want one naming both digests", err)
	}
	states[1].ModelSHA = "aaaa"
	if _, _, err := MergedRun(cfg, states...); err != nil {
		t.Fatalf("merge of one weights' states: %v", err)
	}
}

// TestShardStateGolden pins the bytes a peer ships its coordinator, which
// are the wire contract between two processes of one build: the golden was
// written before the state became one typed document and must not move. Each
// line also decodes and re-encodes to itself.
func TestShardStateGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/shard_state.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := shardStateGoldenBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("shard state bytes moved:\n%s\nwant\n%s", got, want)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n")) {
		st, err := UnmarshalContinuousState(line)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := json.Marshal(st); err != nil || !bytes.Equal(again, line) {
			t.Fatalf("golden state does not re-encode to itself (err %v):\n%s", err, again)
		}
	}
}
