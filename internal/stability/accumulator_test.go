package stability

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomRecords draws a record stream with repeated (item, angle) groups,
// several environments, a mix of runtimes (including the legacy empty
// string), and top-k lists that sometimes contain the label.
func randomRecords(rng *rand.Rand, n int) []*Record {
	envs := []string{"phone-a", "phone-b", "phone-c", "phone-d"}
	runtimes := []string{"", "float32", "int8", "pruned"}
	out := make([]*Record, n)
	for i := range out {
		item := rng.Intn(20)
		r := &Record{
			ItemID:    item,
			Angle:     rng.Intn(3),
			TrueClass: item % 5, // label is a function of the item, so groups agree
			Env:       envs[rng.Intn(len(envs))],
			Runtime:   runtimes[rng.Intn(len(runtimes))],
			Pred:      rng.Intn(5),
			Score:     rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			r.TopK = []int{r.Pred, rng.Intn(5), rng.Intn(5)}
		}
		out[i] = r
	}
	return out
}

// TestAccumulatorMatchesBatch is the streaming/batch equivalence property:
// for random record streams, Snapshot must agree with the reference
// (reference_test.go) applied to the whole slice.
func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		records := randomRecords(rng, 1+rng.Intn(400))
		acc := NewAccumulator()
		for _, r := range records {
			acc.Add(r)
		}
		snap := acc.Snapshot()

		if want := refCompute(records, false); snap.Top1 != want {
			t.Fatalf("trial %d: top1 %+v, batch %+v", trial, snap.Top1, want)
		}
		if want := refCompute(records, true); snap.TopK != want {
			t.Fatalf("trial %d: topk %+v, batch %+v", trial, snap.TopK, want)
		}
		if want := refAccuracy(records, "", false); snap.Accuracy != want {
			t.Fatalf("trial %d: accuracy %v, batch %v", trial, snap.Accuracy, want)
		}
		if want := refAccuracy(records, "", true); snap.TopKAccuracy != want {
			t.Fatalf("trial %d: topk accuracy %v, batch %v", trial, snap.TopKAccuracy, want)
		}
		byClass := refByClass(records)
		if len(snap.ByClass) != len(byClass) {
			t.Fatalf("trial %d: %d classes, batch %d", trial, len(snap.ByClass), len(byClass))
		}
		for c, want := range byClass {
			if snap.ByClass[c] != want {
				t.Fatalf("trial %d class %d: %+v, batch %+v", trial, c, snap.ByClass[c], want)
			}
		}
		envs := refEnvs(records)
		if len(snap.ByEnv) != len(envs) {
			t.Fatalf("trial %d: %d envs, batch %d", trial, len(snap.ByEnv), len(envs))
		}
		for i, e := range snap.ByEnv {
			if e.Env != envs[i] {
				t.Fatalf("trial %d: env[%d] = %q, want sorted %q", trial, i, e.Env, envs[i])
			}
			if want := refAccuracy(records, e.Env, false); e.Accuracy != want {
				t.Fatalf("trial %d env %s: accuracy %v, batch %v", trial, e.Env, e.Accuracy, want)
			}
			if want := refAccuracy(records, e.Env, true); e.TopKAccuracy != want {
				t.Fatalf("trial %d env %s: topk accuracy %v, batch %v", trial, e.Env, e.TopKAccuracy, want)
			}
		}
		for k, g := range refGroups(records) {
			if got, want := acc.Unstable(k), refUnstable(g, false); got != want {
				t.Fatalf("trial %d group %+v: Unstable %v, batch %v", trial, k, got, want)
			}
		}
		if acc.Unstable(GroupKey{ItemID: -1}) {
			t.Fatalf("trial %d: a group never added is unstable", trial)
		}
		if got := NewAccumulator(records...).Snapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("trial %d: NewAccumulator(records...) %+v, Add one by one %+v", trial, got, snap)
		}
	}
}

// TestAccumulatorOrderIndependent shuffles one record stream and checks the
// snapshots are identical — the property that makes sharded fleet ingestion
// reproducible under any worker interleaving.
func TestAccumulatorOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	records := randomRecords(rng, 300)
	base := NewAccumulator()
	base.AddAll(records)
	want := base.Snapshot()
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]*Record(nil), records...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		acc := NewAccumulator()
		acc.AddAll(shuffled)
		got := acc.Snapshot()
		if got.Top1 != want.Top1 || got.TopK != want.TopK || got.Accuracy != want.Accuracy {
			t.Fatalf("trial %d: snapshot diverged after shuffle: %+v vs %+v", trial, got, want)
		}
	}
}

// TestAccumulatorConcurrentAdd exercises Add/Snapshot from many goroutines
// (meaningful under -race) and checks the final counts.
func TestAccumulatorConcurrentAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	records := randomRecords(rng, 800)
	acc := NewAccumulator()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(records); i += workers {
				acc.Add(records[i])
				if i%97 == 0 {
					_ = acc.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := acc.Snapshot().Top1, refCompute(records, false); got != want {
		t.Fatalf("concurrent snapshot %+v, batch %+v", got, want)
	}
}

// TestAccumulatorConflictingLabelPanics checks that a group keeps one label.
func TestAccumulatorConflictingLabelPanics(t *testing.T) {
	acc := NewAccumulator()
	acc.Add(&Record{ItemID: 1, TrueClass: 2, Env: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on conflicting labels")
		}
	}()
	acc.Add(&Record{ItemID: 1, TrueClass: 3, Env: "b"})
}

// TestAccumulatorEmpty checks the zero-value snapshot.
func TestAccumulatorEmpty(t *testing.T) {
	snap := NewAccumulator().Snapshot()
	if snap.Records != 0 || snap.Top1.Groups != 0 || snap.Accuracy != 0 {
		t.Fatalf("empty snapshot not zero: %+v", snap)
	}
}
