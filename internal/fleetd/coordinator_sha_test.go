package fleetd

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
)

// TestFanOutRefusesForeignState holds the coordinator to its own weights: a
// peer that ships a state stamped with another model_sha fails the sweep,
// the error naming both digests, and nothing is merged.
func TestFanOutRefusesForeignState(t *testing.T) {
	merged := false
	f := &fanOut[int]{
		kind: "run", shard: "shard", total: 2, modelSHA: "aaaa",
		probe: func(context.Context, []*fleetapi.Client) error { return nil },
		dispatch: func(_ context.Context, _ *fleetapi.Client, lo, hi int, _, _ string) (*fleet.ContinuousState, error) {
			return &fleet.ContinuousState{ModelSHA: "bbbb", DeviceLo: lo, DeviceHi: hi}, nil
		},
		merge: func([]*fleet.ContinuousState) (int, error) { merged = true; return 0, nil },
	}
	f.plan([]*fleetapi.Client{{BaseURL: "http://peer"}})
	_, err := f.execute()
	if err == nil || !strings.Contains(err.Error(), `"aaaa"`) || !strings.Contains(err.Error(), `"bbbb"`) || merged {
		t.Fatalf("foreign state: err %v, merged %v; want an error naming both digests and no merge", err, merged)
	}
}
