package stability

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// rec builds a test record compactly.
func rec(item, angle, trueClass int, env string, pred int, score float64) *Record {
	return &Record{ItemID: item, Angle: angle, TrueClass: trueClass, Env: env, Pred: pred, Score: score}
}

func TestRecordCorrect(t *testing.T) {
	r := rec(0, 0, 2, "a", 2, 0.9)
	if !r.Correct() {
		t.Fatal("matching prediction must be correct")
	}
	r.Pred = 1
	if r.Correct() {
		t.Fatal("mismatched prediction must be incorrect")
	}
}

func TestCorrectTopK(t *testing.T) {
	r := rec(0, 0, 2, "a", 1, 0.9)
	r.TopK = []int{1, 2, 3}
	if !r.CorrectTopK() {
		t.Fatal("label in top-k must count")
	}
	r.TopK = []int{1, 3, 4}
	if r.CorrectTopK() {
		t.Fatal("label absent from top-k must not count")
	}
	// empty top-k falls back to top-1
	r.TopK = nil
	if r.CorrectTopK() {
		t.Fatal("fallback to top-1 broken")
	}
	r.Pred = 2
	if !r.CorrectTopK() {
		t.Fatal("fallback to top-1 broken (correct case)")
	}
}

func TestInstabilityDefinition(t *testing.T) {
	// One item: phone A correct, phone B incorrect → unstable.
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9),
		rec(1, 0, 0, "B", 1, 0.8),
	}
	if got := Compute(records); got.Unstable != 1 || got.Groups != 1 {
		t.Fatalf("Compute = %+v", got)
	}
}

func TestAllWrongIsStable(t *testing.T) {
	// The paper: disagreeing but all-incorrect predictions are NOT
	// counted as unstable.
	records := []*Record{
		rec(1, 0, 0, "A", 1, 0.9),
		rec(1, 0, 0, "B", 2, 0.8), // different wrong answer
	}
	if got := Compute(records); got.Unstable != 0 {
		t.Fatalf("all-incorrect group counted unstable: %+v", got)
	}
}

func TestAllCorrectIsStable(t *testing.T) {
	records := []*Record{
		rec(1, 0, 3, "A", 3, 0.9),
		rec(1, 0, 3, "B", 3, 0.8),
		rec(1, 0, 3, "C", 3, 0.7),
	}
	if got := Compute(records); got.Unstable != 0 {
		t.Fatalf("all-correct group counted unstable: %+v", got)
	}
}

func TestGroupingByItemAndAngle(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9), // group (1,0): stable correct
		rec(1, 0, 0, "B", 0, 0.9),
		rec(1, 1, 0, "A", 0, 0.9), // group (1,1): unstable
		rec(1, 1, 0, "B", 1, 0.9),
		rec(2, 0, 0, "A", 1, 0.9), // group (2,0): stable incorrect
		rec(2, 0, 0, "B", 2, 0.9),
	}
	s := Compute(records)
	if s.Groups != 3 || s.Unstable != 1 {
		t.Fatalf("Compute = %+v, want 3 groups 1 unstable", s)
	}
}

func TestConflictingLabelsPanic(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9),
		rec(1, 0, 1, "B", 0, 0.9), // same item, different label
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting labels must panic")
		}
	}()
	Compute(records)
}

func TestTopKInstability(t *testing.T) {
	a := rec(1, 0, 0, "A", 0, 0.9)
	a.TopK = []int{0, 1, 2}
	b := rec(1, 0, 0, "B", 1, 0.9)
	b.TopK = []int{1, 0, 2} // top-1 wrong, but label in top-3
	records := []*Record{a, b}
	if got := Compute(records); got.Unstable != 1 {
		t.Fatalf("top-1 instability = %+v", got)
	}
	if got := ComputeTopK(records); got.Unstable != 0 {
		t.Fatalf("top-3 instability = %+v, want stable", got)
	}
}

func TestRatePercentString(t *testing.T) {
	s := Summary{Groups: 200, Unstable: 30}
	if s.Rate() != 0.15 {
		t.Fatalf("Rate = %v", s.Rate())
	}
	if s.Percent() != 15 {
		t.Fatalf("Percent = %v", s.Percent())
	}
	if !strings.Contains(s.String(), "15.00%") {
		t.Fatalf("String = %q", s.String())
	}
	var empty Summary
	if empty.Rate() != 0 {
		t.Fatal("empty summary rate must be 0")
	}
}

func TestByClass(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9), rec(1, 0, 0, "B", 1, 0.9), // class 0 unstable
		rec(2, 0, 1, "A", 1, 0.9), rec(2, 0, 1, "B", 1, 0.9), // class 1 stable
	}
	by := ByClass(records)
	if by[0].Unstable != 1 || by[0].Groups != 1 {
		t.Fatalf("class 0: %+v", by[0])
	}
	if by[1].Unstable != 0 || by[1].Groups != 1 {
		t.Fatalf("class 1: %+v", by[1])
	}
}

func TestByAngle(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9), rec(1, 0, 0, "B", 1, 0.9),
		rec(1, 4, 0, "A", 0, 0.9), rec(1, 4, 0, "B", 0, 0.9),
	}
	by := ByAngle(records)
	if by[0].Unstable != 1 {
		t.Fatalf("angle 0: %+v", by[0])
	}
	if by[4].Unstable != 0 {
		t.Fatalf("angle 4: %+v", by[4])
	}
}

func TestAccuracyPerEnv(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9),
		rec(2, 0, 1, "A", 0, 0.9),
		rec(1, 0, 0, "B", 0, 0.9),
	}
	if got := Accuracy(records, "A"); got != 0.5 {
		t.Fatalf("Accuracy(A) = %v", got)
	}
	if got := Accuracy(records, "B"); got != 1 {
		t.Fatalf("Accuracy(B) = %v", got)
	}
	if got := Accuracy(records, ""); got < 0.66 || got > 0.67 {
		t.Fatalf("Accuracy(all) = %v", got)
	}
	if Accuracy(nil, "") != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}

func TestTopKAccuracy(t *testing.T) {
	a := rec(1, 0, 2, "A", 0, 0.9)
	a.TopK = []int{0, 2}
	records := []*Record{a}
	if TopKAccuracy(records, "") != 1 {
		t.Fatal("top-k accuracy should count label in list")
	}
	if Accuracy(records, "") != 0 {
		t.Fatal("top-1 accuracy should not")
	}
}

func TestEnvs(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "zeta", 0, 0.9),
		rec(1, 0, 0, "alpha", 0, 0.9),
		rec(2, 0, 0, "zeta", 0, 0.9),
	}
	envs := Envs(records)
	if len(envs) != 2 || envs[0] != "alpha" || envs[1] != "zeta" {
		t.Fatalf("Envs = %v", envs)
	}
}

func TestSplitScores(t *testing.T) {
	records := []*Record{
		rec(1, 0, 0, "A", 0, 0.9), rec(1, 0, 0, "B", 1, 0.4), // unstable group
		rec(2, 0, 0, "A", 0, 0.8), rec(2, 0, 0, "B", 0, 0.7), // stable correct
		rec(3, 0, 0, "A", 1, 0.6), rec(3, 0, 0, "B", 2, 0.5), // stable incorrect
	}
	s := SplitScores(records)
	if len(s.UnstableCorrect) != 1 || s.UnstableCorrect[0] != 0.9 {
		t.Fatalf("UnstableCorrect = %v", s.UnstableCorrect)
	}
	if len(s.UnstableIncorrect) != 1 || s.UnstableIncorrect[0] != 0.4 {
		t.Fatalf("UnstableIncorrect = %v", s.UnstableIncorrect)
	}
	if len(s.StableCorrect) != 2 || len(s.StableIncorrect) != 2 {
		t.Fatalf("stable splits: %v / %v", s.StableCorrect, s.StableIncorrect)
	}
}

func TestInstabilityOrderInvariance(t *testing.T) {
	// Property: shuffling record order never changes the summary.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var records []*Record
		for item := 0; item < 10; item++ {
			for _, env := range []string{"A", "B", "C"} {
				records = append(records, rec(item, rng.Intn(2), item%3, env, rng.Intn(3), rng.Float64()))
			}
		}
		want := Compute(records)
		rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
		got := Compute(records)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInstabilityMonotoneInEnvironments(t *testing.T) {
	// Property: adding an environment can only keep or increase the set of
	// unstable groups (it can add a disagreeing prediction, never remove
	// one).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var twoEnv, threeEnv []*Record
		for item := 0; item < 12; item++ {
			cls := item % 3
			a := rec(item, 0, cls, "A", rng.Intn(3), rng.Float64())
			b := rec(item, 0, cls, "B", rng.Intn(3), rng.Float64())
			c := rec(item, 0, cls, "C", rng.Intn(3), rng.Float64())
			twoEnv = append(twoEnv, a, b)
			threeEnv = append(threeEnv, a, b, c)
		}
		return Compute(threeEnv).Unstable >= Compute(twoEnv).Unstable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleEnvironmentIsAlwaysStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var records []*Record
		for item := 0; item < 20; item++ {
			records = append(records, rec(item, 0, item%5, "only", rng.Intn(5), rng.Float64()))
		}
		return Compute(records).Unstable == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupRecordsDeterministicOrder(t *testing.T) {
	records := []*Record{
		rec(2, 1, 0, "A", 0, 0.9),
		rec(1, 0, 0, "A", 0, 0.9),
		rec(1, 1, 0, "A", 0, 0.9),
		rec(2, 0, 0, "A", 0, 0.9),
	}
	groups := GroupRecords(records)
	want := []GroupKey{{1, 0}, {1, 1}, {2, 0}, {2, 1}}
	for i, g := range groups {
		if g.Key != want[i] {
			t.Fatalf("group %d key %+v, want %+v", i, g.Key, want[i])
		}
	}
}
