package fleet

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/nn"
)

// TestFinetunesRepeatAndRunConcurrently: a fine-tune's step buffers belong to
// the model it trains. Two models fine-tune into two names one after the
// other; then each is restored to its start and fine-tuned again into the
// same name, both at once. The second pass runs on the buffers the first one
// left (shaped for the corpus's 12-image last batch) beside another model's
// steps, and each must come out the bytes its first pass did: a buffer some
// step reads before writing it, or one two models share, would show here.
// Under -race this is the check that no step buffer is shared.
func TestFinetunesRepeatAndRunConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("fine-tunes four times")
	}
	factory := testFactory()
	names := []string{"stable:two-images", "stable:gaussian:kl"}
	stables := make([]*stableModel, len(names))
	models := make([]*nn.Model, len(names))
	starts := make([]*nn.Snapshot, len(names))
	first := make([][]byte, len(names))
	second := make([][]byte, len(names))
	finetune := func(i int, into [][]byte) {
		models[i].Restore(starts[i])
		stables[i].finetune(models[i])
		var buf bytes.Buffer
		models[i].TakeSnapshot().WriteTo(&buf)
		into[i] = buf.Bytes()
	}
	for i, name := range names {
		var err error
		if stables[i], err = parseModel(name); err != nil {
			t.Fatal(err)
		}
		models[i] = float32Replica(factory)
		starts[i] = models[i].TakeSnapshot()
		finetune(i, first)
	}
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finetune(i, second)
		}()
	}
	wg.Wait()
	for i, name := range names {
		if !bytes.Equal(second[i], first[i]) {
			t.Errorf("%s fine-tuned again from its start, on its used buffers and beside another model, gave other weights", name)
		}
	}
}
