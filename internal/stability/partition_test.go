package stability

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// partitionOf is the test partition: an env "p2/e5" belongs to "p2".
func partitionOf(env string) string { return env[:strings.IndexByte(env, '/')] }

// partitionRecords draws a record stream in which every partition holds
// several envs, envs mix runtimes, and the same (item, angle) group is seen
// both correct and incorrect — inside one partition, across partitions, and
// sometimes by one env under two runtimes.
func partitionRecords(rng *rand.Rand, n int) []*Record {
	runtimes := []string{"float32", "int8", "pruned"}
	records := make([]*Record, n)
	for i := range records {
		item := rng.Intn(6)
		class := item % 3
		pred := class
		if rng.Intn(3) == 0 {
			pred = (class + 1) % 3
		}
		topk := []int{pred}
		if rng.Intn(2) == 0 {
			topk = append(topk, class)
		}
		records[i] = &Record{
			ItemID:    item,
			Angle:     rng.Intn(2),
			TrueClass: class,
			Env:       fmt.Sprintf("p%d/e%d", rng.Intn(4), rng.Intn(3)),
			Runtime:   runtimes[rng.Intn(len(runtimes))],
			Pred:      pred,
			TopK:      topk,
		}
	}
	return records
}

// checkPartitions requires acc.ByPartition to equal, field for field,
// separate accumulators fed each partition's records.
func checkPartitions(t *testing.T, what string, acc *Accumulator, records []*Record) {
	t.Helper()
	separate := map[string]*Accumulator{}
	for _, r := range records {
		p := partitionOf(r.Env)
		if separate[p] == nil {
			separate[p] = NewAccumulator()
		}
		separate[p].Add(r)
	}
	got := acc.ByPartition(partitionOf)
	if len(got) != len(separate) {
		t.Fatalf("%s: %d partitions, want %d", what, len(got), len(separate))
	}
	for p, sep := range separate {
		snap := sep.Snapshot()
		want := PartitionSummary{Records: snap.Records, Accuracy: snap.Accuracy, TopKAccuracy: snap.TopKAccuracy, Top1: snap.Top1}
		if got[p] != want {
			t.Fatalf("%s: partition %s = %+v, separate accumulator says %+v", what, p, got[p], want)
		}
	}
}

// TestByPartitionEqualsSeparateAccumulators is the property the fleet's
// by-cohort stats stand on: the partition summary derived from one
// accumulator's env counters and cell bits is exactly what one accumulator
// per partition would have reported — directly, after merging shards in any
// order, and after a wire round trip.
func TestByPartitionEqualsSeparateAccumulators(t *testing.T) {
	unstable := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		records := partitionRecords(rng, 20+rng.Intn(200))

		direct := NewAccumulator()
		direct.AddAll(records)
		checkPartitions(t, "direct", direct, records)
		for _, s := range direct.ByPartition(partitionOf) {
			unstable += s.Top1.Unstable
		}

		shards := make([]*Accumulator, 4)
		for i := range shards {
			shards[i] = NewAccumulator()
		}
		for _, r := range records {
			shards[rng.Intn(len(shards))].Add(r)
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		merged := NewAccumulator()
		for _, s := range shards {
			merged.Merge(s)
		}
		checkPartitions(t, "merged", merged, records)

		state, err := merged.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		restored := NewAccumulator()
		if err := restored.UnmarshalState(state); err != nil {
			t.Fatal(err)
		}
		checkPartitions(t, "round trip", restored, records)
	}
	if unstable == 0 {
		t.Fatal("no partition was ever unstable: the streams do not exercise the cell-bit OR")
	}
	if got := NewAccumulator().ByPartition(partitionOf); len(got) != 0 {
		t.Fatalf("empty accumulator has partitions: %+v", got)
	}
}

// TestUnmarshalStateRejectsConflictingClass feeds a coordinator's
// accumulator a shard state that disagrees with already-merged state on a
// group's class. The bytes come from a peer, so the answer is an error that
// leaves the accumulator as it was — not Merge's panic, which would take
// the daemon down from inside its run goroutine.
func TestUnmarshalStateRejectsConflictingClass(t *testing.T) {
	acc := NewAccumulator()
	acc.Add(&Record{ItemID: 1, TrueClass: 2, Env: "a", Pred: 2})
	before, err := acc.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	peer := NewAccumulator()
	peer.Add(&Record{ItemID: 7, TrueClass: 0, Env: "b", Pred: 0})
	peer.Add(&Record{ItemID: 1, TrueClass: 3, Env: "b", Pred: 3})
	state, err := peer.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	err = acc.UnmarshalState(state)
	if err == nil || !strings.Contains(err.Error(), "conflicting labels 2 and 3") {
		t.Fatalf("conflicting shard state: err = %v, want the label conflict", err)
	}
	after, err := acc.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("rejected state was partly merged:\n%s\nvs\n%s", after, before)
	}

	// The same conflict inside a windowed state surfaces the same way.
	win := NewWindowed()
	win.Add(0, &Record{ItemID: 1, TrueClass: 2, Env: "a", Pred: 2})
	peerWin := NewWindowed()
	peerWin.Add(0, &Record{ItemID: 1, TrueClass: 3, Env: "b", Pred: 3})
	winState, err := peerWin.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := win.UnmarshalState(winState); err == nil {
		t.Fatal("windowed state with a conflicting class accepted")
	}
}
