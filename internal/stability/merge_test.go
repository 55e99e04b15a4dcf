package stability

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestAccumulatorRuntimeMatchesBatch pins the runtime breakdowns of the
// streaming snapshot to the reference: ByRuntime and CrossRuntime must agree
// with refByRuntime(records) / refCrossRuntime(records) for random streams.
func TestAccumulatorRuntimeMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		records := randomRecords(rng, 1+rng.Intn(400))
		acc := NewAccumulator()
		acc.AddAll(records)
		snap := acc.Snapshot()

		byRuntime := refByRuntime(records)
		if len(snap.ByRuntime) != len(byRuntime) {
			t.Fatalf("trial %d: %d runtimes, batch %d", trial, len(snap.ByRuntime), len(byRuntime))
		}
		for _, ra := range snap.ByRuntime {
			if want := byRuntime[ra.Runtime]; ra.Top1 != want {
				t.Fatalf("trial %d runtime %s: top1 %+v, batch %+v", trial, ra.Runtime, ra.Top1, want)
			}
			var recs []*Record
			for _, r := range records {
				if r.RuntimeName() == ra.Runtime {
					recs = append(recs, r)
				}
			}
			if ra.Records != len(recs) {
				t.Fatalf("trial %d runtime %s: %d records, want %d", trial, ra.Runtime, ra.Records, len(recs))
			}
			if want := refAccuracy(recs, "", false); ra.Accuracy != want {
				t.Fatalf("trial %d runtime %s: accuracy %v, batch %v", trial, ra.Runtime, ra.Accuracy, want)
			}
		}
		if want := refCrossRuntime(records); snap.CrossRuntime != want {
			t.Fatalf("trial %d: cross-runtime %+v, batch %+v", trial, snap.CrossRuntime, want)
		}
	}
}

// TestCrossRuntimeAttribution pins the attribution semantics on hand-built
// groups: a flip between internally-consistent runtimes is attributable, a
// flip inside one runtime is not, and single-runtime groups are excluded.
func TestCrossRuntimeAttribution(t *testing.T) {
	rec := func(item int, runtime string, correct bool) *Record {
		pred := 1
		if correct {
			pred = 0
		}
		return &Record{ItemID: item, TrueClass: 0, Env: "e", Runtime: runtime, Pred: pred}
	}
	records := []*Record{
		// group 1: float32 all correct, int8 all wrong → attributable.
		rec(1, "float32", true), rec(1, "float32", true), rec(1, "int8", false),
		// group 2: float32 itself split → unstable but not attributable.
		rec(2, "float32", true), rec(2, "float32", false), rec(2, "int8", false),
		// group 3: both runtimes correct → stable, counted in denominator.
		rec(3, "float32", true), rec(3, "int8", true),
		// group 4: one runtime only → excluded from the denominator.
		rec(4, "int8", true), rec(4, "int8", false),
	}
	want := Summary{Groups: 3, Unstable: 1}
	if got := refCrossRuntime(records); got != want {
		t.Fatalf("cross-runtime %+v, want %+v", got, want)
	}
	acc := NewAccumulator()
	acc.AddAll(records)
	if got := acc.Snapshot().CrossRuntime; got != want {
		t.Fatalf("accumulator cross-runtime %+v, want %+v", got, want)
	}
}

// TestMergeEqualsBatch is the sharding property: split a record stream into
// k shards, accumulate each independently, merge — the result must equal one
// accumulator fed the whole stream, for every k and any shard assignment.
func TestMergeEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		records := randomRecords(rng, 1+rng.Intn(500))
		whole := NewAccumulator()
		whole.AddAll(records)
		want := whole.Snapshot()

		k := 1 + rng.Intn(5)
		shards := make([]*Accumulator, k)
		for i := range shards {
			shards[i] = NewAccumulator()
		}
		for _, r := range records {
			shards[rng.Intn(k)].Add(r)
		}
		merged := NewAccumulator()
		for _, s := range shards {
			merged.Merge(s)
		}
		if got := merged.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d): merged snapshot diverged:\n%+v\nvs\n%+v", trial, k, got, want)
		}
	}
}

// TestWireRoundTrip ships shard states through the JSON wire format and
// checks the rebuilt accumulator matches byte-for-byte: marshal → unmarshal
// → marshal must be identity, and merging unmarshaled shards must equal the
// batch accumulator.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		records := randomRecords(rng, 1+rng.Intn(300))
		whole := NewAccumulator()
		whole.AddAll(records)
		wantBytes, err := whole.MarshalState()
		if err != nil {
			t.Fatal(err)
		}

		// Identity: unmarshal into empty, re-marshal, compare bytes.
		back := NewAccumulator()
		if err := back.UnmarshalState(wantBytes); err != nil {
			t.Fatal(err)
		}
		gotBytes, err := back.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("trial %d: wire round trip not identity:\n%s\nvs\n%s", trial, gotBytes, wantBytes)
		}

		// Sharded: two shards, shipped as bytes, folded into one.
		a, b := NewAccumulator(), NewAccumulator()
		for i, r := range records {
			if i%2 == 0 {
				a.Add(r)
			} else {
				b.Add(r)
			}
		}
		coordinator := NewAccumulator()
		for _, shard := range []*Accumulator{a, b} {
			state, err := shard.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := coordinator.UnmarshalState(state); err != nil {
				t.Fatal(err)
			}
		}
		if got := coordinator.Snapshot(); !reflect.DeepEqual(got, whole.Snapshot()) {
			t.Fatalf("trial %d: sharded wire merge diverged", trial)
		}
	}
}

// TestWireRejectsGarbage checks the defensive paths of UnmarshalState.
func TestWireRejectsGarbage(t *testing.T) {
	for _, input := range []string{
		"",
		"not json",
		`{"version":99,"groups":[]}`,
		`{"version":1,"groups":[{"item_id":1,"angle":0,"class":0,"correct":-1}]}`,
		`{"version":1,"groups":[{"item_id":1,"angle":0},{"item_id":1,"angle":0}]}`,
		`{"version":1,"groups":[{"item_id":1,"angle":0,"by_runtime":[{"runtime":"a"},{"runtime":"a"}]}]}`,
		`{"version":1,"groups":[{"item_id":1,"angle":0,"by_runtime":[{"runtime":"a","correct":-2}]}]}`,
		`{"version":1,"envs":[{"name":"e","total":-50,"correct":-100}]}`,
		`{"version":1,"runtimes":[{"name":"int8","total":-1}]}`,
		`{"version":1,"runtimes":[{"name":"int8"},{"name":"int8"}]}`,
		`{"version":1,"cells":[{"item_id":1,"angle":0,"env":"e","runtimes":["a"],"bits":[-1]}]}`,
	} {
		if err := NewAccumulator().UnmarshalState([]byte(input)); err == nil {
			t.Fatalf("accepted garbage state %q", input)
		}
	}
}

// TestMergeOppositeDirectionsNoDeadlock runs a.Merge(b) and b.Merge(a)
// concurrently; the stable lock ordering inside Merge must keep the pair
// from deadlocking.
func TestMergeOppositeDirectionsNoDeadlock(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a, b := NewAccumulator(), NewAccumulator()
	a.AddAll(randomRecords(rng, 100))
	b.AddAll(randomRecords(rng, 100))
	done := make(chan struct{}, 2)
	for i := 0; i < 20; i++ {
		go func() { a.Merge(b); done <- struct{}{} }()
		go func() { b.Merge(a); done <- struct{}{} }()
		for j := 0; j < 2; j++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("opposite-direction merges deadlocked")
			}
		}
	}
}

// TestMergeSelfPanics guards the aliasing footgun.
func TestMergeSelfPanics(t *testing.T) {
	acc := NewAccumulator()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-merge")
		}
	}()
	acc.Merge(acc)
}
