package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/lifecycle"
)

// FuzzShardState drives the one decoder of peer bytes — the shard state a
// coordinator receives from /v1/shards and /v1/fleetshards — with mutants of
// honest states: whatever UnmarshalContinuousState accepts must re-encode to
// a fixed point and must merge, under a run's and a fleet's config alike,
// into a snapshot or an error, never a panic.
func FuzzShardState(f *testing.F) {
	runCfg := Config{Devices: 4, Items: 1, Angles: []int{0, 2}, Seed: 3, Workers: 1}
	fleetCfg := ContinuousConfig{
		Fleet:   runCfg,
		Windows: 3,
		Churn:   lifecycle.Churn{JoinRate: 0.4, LeaveRate: 0.3},
		Events:  []lifecycle.Event{{Window: 1, Device: 2, Kind: lifecycle.KindOSUpgrade}},
	}
	runRange, fleetRange := runCfg, fleetCfg
	runRange.DeviceLo, runRange.DeviceHi = 1, 3
	fleetRange.Fleet.DeviceLo, fleetRange.Fleet.DeviceHi = 1, 4
	run := NewRunner(runRange, testFactory())
	run.Run()
	for _, r := range []interface{ MarshalState() ([]byte, error) }{run, runContinuous(f, fleetRange)} {
		data, err := r.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		// An honest state is accepted and re-marshals byte-identically.
		st, err := UnmarshalContinuousState(data)
		if err != nil {
			f.Fatal(err)
		}
		if again, err := json.Marshal(st); err != nil || !bytes.Equal(again, data) {
			f.Fatalf("honest state did not re-marshal to itself (err %v):\n%s\nvs\n%s", err, again, data)
		}
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 1
		f.Add(data)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalContinuousState(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("accepted state does not marshal: %v", err)
		}
		back, err := UnmarshalContinuousState(enc)
		if err != nil {
			t.Fatalf("re-encoded state rejected: %v\n%s", err, enc)
		}
		if enc2, err := json.Marshal(back); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encode∘decode is not a fixed point (err %v):\n%s\nvs\n%s", err, enc2, enc)
		}
		// Most mutants are refused; the property is that refusal is an
		// error.
		MergedStats(runCfg, st)
		MergedFleetReport(fleetCfg, st)
	})
}
