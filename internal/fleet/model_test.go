package fleet_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/lab"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestModelGrammar pins the canonical spelling of every accepted model and
// the refusal of what is not one: model strings come from outside, and a
// NaN α would fine-tune to one class, whose all-wrong groups are never
// unstable.
func TestModelGrammar(t *testing.T) {
	for in, want := range map[string]string{
		"": "", "base": "", "BASE": "",
		"stable:none": "stable:none", "STABLE:None": "stable:none",
		"STABLE:Two-Images": "stable:two-images@0.1", "stable:two-images:kl": "stable:two-images:kl@0.4",
		"stable:subsample": "stable:subsample@0.1", "stable:subsample:KL": "stable:subsample:kl@0.1",
		"stable:distortion": "stable:distortion@0.1", "stable:distortion:kl": "stable:distortion:kl@1.2",
		"stable:gaussian": "stable:gaussian@0.4", "stable:gaussian:kl": "stable:gaussian:kl@1.2",
		"stable:gaussian@0.40": "stable:gaussian@0.4", "stable:two-images@1e-1": "stable:two-images@0.1",
		"stable:two-images@0": "stable:two-images@0", "stable:two-images@-0": "stable:two-images@0",
		"stable:two-images:kl@2.5": "stable:two-images:kl@2.5",
	} {
		if got, err := fleet.CanonicalModel(in); err != nil || got != want {
			t.Errorf("CanonicalModel(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{
		"stable:gaussian@NaN", "stable:gaussian@+Inf", "stable:gaussian@-1", "stable:gaussian@1e999",
		"stable:none@0.1", "stable:none:kl", "stable:", "stable:two-images ", " stable:two-images", "base ",
		"stable:two-images@", "stable:two-images:", "stable:two-images:l2", "stable:two-images:kl:kl",
		"stable:gaussian@0.1@0.2", "stable", "stable:noise", "stable:two images", "stable:gaussian@0.1 ", "int8",
	} {
		if got, err := fleet.CanonicalModel(in); err == nil {
			t.Errorf("CanonicalModel(%q) = %q, want an error", in, got)
		}
	}
}

// finetunedDigest is the sha256 of the stable:two-images snapshot fine-tuned
// from bench/testdata/base.model.
const finetunedDigest = "7a74d19ff66205af7088b34fee9983f6549a83e5ce5f3ed6b974e387a8305f86"

// TestFinetunedSnapshotDigest pins the weights a model arm runs: the
// stable:two-images fine-tune of the committed base model, read back from
// the float32 replica every device of a run with that model compiles. Every
// peer fine-tunes a model arm's weights on its own, so they must come out
// the same bytes on every architecture; CI runs this on GOARCH=386's
// portable kernels too.
func TestFinetunedSnapshotDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fine-tunes the committed model")
	}
	base, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	factory := fleet.ModelFactory(fleet.BackendReplicator(lab.DefaultBaseModel().Arch, base), "stable:two-images")
	if got := fleet.ModelSHA(factory); got != finetunedDigest {
		t.Errorf("stable:two-images fine-tuned from base.model: sha256 %s, want %s", got, finetunedDigest)
	}
}

// TestReplicasMatchTrainedModel holds BackendReplicator's clones to the
// recipe they replace, a fresh architecture with the trained snapshot
// restored: the float32 replica's snapshot is byte-equal to the trained
// model's, and every runtime compiled from a clone infers the same bits as
// that runtime compiled from the restored architecture.
func TestReplicasMatchTrainedModel(t *testing.T) {
	base, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	arch := lab.DefaultBaseModel().Arch
	factory := fleet.BackendReplicator(arch, base)
	var want, got bytes.Buffer
	base.TakeSnapshot().WriteTo(&want)
	factory(nn.RuntimeFloat32).(*nn.Model).TakeSnapshot().WriteTo(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the float32 replica's snapshot differs from the trained model's")
	}
	x := tensor.New(3, 3, base.InputHW, base.InputHW)
	x.RandNormal(rand.New(rand.NewSource(12)), 0.5)
	for _, rt := range nn.Runtimes() {
		restored := arch()
		restored.Restore(base.TakeSnapshot())
		a, b := factory(rt).Infer(x), nn.NewRuntimeBackend(rt, restored).Infer(x)
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s output %d: replica %v, restored architecture %v", rt, i, a[i], b[i])
			}
		}
	}
}
