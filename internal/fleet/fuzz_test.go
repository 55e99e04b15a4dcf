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
// into an error or into a snapshot that renders — JSON and all, which a
// non-finite float would panic in — never a panic.
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
		// Honest but for its capture count, which merged unchecked and
		// printed in the stats.
		for _, captures := range []int{-7, 8000} {
			lying := *st
			lying.Captures = captures
			mutant, err := json.Marshal(&lying)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(mutant)
		}
		// Honest but for the weights it names: a state of another model.
		foreign := *st
		foreign.ModelSHA = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
		mutant, err := json.Marshal(&foreign)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mutant)
		// The mutant that used to reach the render: one device's mean at the
		// edge of float64, so that merging it with its neighbours overflows.
		st.Devices[0].Windows[0].Score.Mean = 1e308
		st.Devices[1].Windows[0].Score.Mean = -1e308
		huge, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(huge)
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
		// error and that whatever is not refused renders.
		if stats, _, err := MergedRun(runCfg, st); err == nil {
			stats.JSON()
		}
		if rep, err := MergedFleetReport(fleetCfg, st); err == nil {
			rep.JSON()
		}
	})
}
