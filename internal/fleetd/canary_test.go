package fleetd

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/lab"
)

// committedCellDigest is cell_digest on bench/testdata/base.model: the
// canary cells' predictions, scores, encoded sizes and decoded frames.
const committedCellDigest = "08fc734ce41aa0659955c6b943bb790b602a2038da726425a3c9c7d5f1ef4c68"

// TestCellDigestGolden pins cell_digest on the committed model as a
// constant. Every stage of a cell is in it: the device synthesis, the
// sensor's noise stream, the ISP, the codec and all three runtimes. CI runs
// it with the vector kernels dispatched, with -tags purego, under
// GODEBUG=cpu.fma=off (math's FMA bodies off) and on GOARCH=386, so a build
// or processor that computes another bit anywhere in a cell fails here in
// seconds, where every golden on every configuration would take minutes.
func TestCellDigestGolden(t *testing.T) {
	base, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	if got := cellDigest(fleet.BackendReplicator(lab.DefaultBaseModel().Arch, base)); got != committedCellDigest {
		t.Errorf("cell_digest of base.model = %s, want %s", got, committedCellDigest)
	}
}
