package fleetapi

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/nn"
)

func TestRunSpecValidate(t *testing.T) {
	good := []RunSpec{
		{},
		{Devices: 500, Items: 4, Angles: []int{0, 2, 4}, Seed: -7, Runtime: nn.RuntimeInt8},
		{Devices: MaxDevices, Items: 1, Angles: []int{0}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("valid spec %+v rejected: %v", s, err)
		}
	}
	bad := []RunSpec{
		{Devices: -1},
		{Devices: MaxDevices + 1},
		{Items: MaxItems + 1},
		{Workers: MaxWorkers + 1},
		{Scale: MaxScale + 1},
		{TopK: MaxTopK + 1},
		{Runtime: "tpu"},
		{Angles: []int{9}},
		{Angles: []int{0, 0}},
		{Devices: 1_000_000, Items: 1000, Angles: []int{0, 1, 2}}, // composite captures cap
		{Devices: 1 << 19, Items: 1 << 13, Angles: []int{0}},      // 2³² captures: zero in a 32-bit int that wraps
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %+v accepted", s)
		}
	}
}

func TestShardSpecValidate(t *testing.T) {
	base := RunSpec{Devices: 100, Items: 1, Angles: []int{0}}
	good := []ShardSpec{
		{RunSpec: base, DeviceLo: 0, DeviceHi: 100},
		{RunSpec: base, DeviceLo: 50, DeviceHi: 51},
		{DeviceLo: 0, DeviceHi: 100}, // zero spec defaults to 100 devices
		// The captures cap is per-shard: a fleet too big for one instance
		// is exactly what shards exist for.
		{RunSpec: RunSpec{Devices: MaxDevices, Items: 10, Angles: []int{0, 1, 2}}, DeviceLo: 0, DeviceHi: 1000},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("valid shard %+v rejected: %v", s, err)
		}
	}
	bad := []ShardSpec{
		{RunSpec: base}, // empty range
		{RunSpec: base, DeviceLo: 10, DeviceHi: 10},   // lo == hi
		{RunSpec: base, DeviceLo: 20, DeviceHi: 10},   // inverted
		{RunSpec: base, DeviceLo: -1, DeviceHi: 10},   // negative lo
		{RunSpec: base, DeviceLo: 90, DeviceHi: 101},  // beyond devices
		{RunSpec: RunSpec{Devices: -2}, DeviceHi: 10}, // bad run spec
		// A single shard over the captures cap is still rejected.
		{RunSpec: RunSpec{Devices: MaxDevices, Items: 10, Angles: []int{0, 1, 2}}, DeviceLo: 0, DeviceHi: MaxDevices},
		// And one of 2³² captures, which a wrapping 32-bit int counts as none.
		{RunSpec: RunSpec{Devices: 1 << 19, Items: 1 << 13, Angles: []int{0}}, DeviceLo: 0, DeviceHi: 1 << 19},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad shard %+v accepted", s)
		}
	}
}

// TestErrorEnvelopeRoundTrip writes an envelope the way handlers do and
// decodes it the way the client does.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, Errorf(CodeConflict, "a fleet run is already in flight"))
	resp := rec.Result()
	if resp.StatusCode != 409 {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	err := DecodeError(resp)
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("decoded %T", err)
	}
	if e.Status != 409 || e.Code != CodeConflict || !strings.Contains(e.Message, "in flight") {
		t.Fatalf("decoded %+v", e)
	}

	// Wire shape is the documented {"error": {...}} envelope.
	var env map[string]map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env["error"]["code"] != CodeConflict {
		t.Fatalf("envelope %v", env)
	}

	// Non-envelope bodies (proxies, panics) still become a useful error.
	rec = httptest.NewRecorder()
	rec.WriteHeader(502)
	rec.WriteString("bad gateway")
	if err := DecodeError(rec.Result()); err == nil || !strings.Contains(err.Error(), "bad gateway") {
		t.Fatalf("non-envelope decode: %v", err)
	}
}
