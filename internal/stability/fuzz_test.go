package stability

import (
	"bytes"
	"testing"
)

// FuzzWindowedState drives the windowed wire decoder — and through it the
// accumulator's — on its own, with mutants of an honest two-window,
// three-runtime state. The format has no length fields, so every allocation
// is bounded by the input; what is left to hold is that a refusal is an
// error and never a panic, and that whatever is accepted is a state like any
// other: it renders, and it marshals to bytes that unmarshal back to
// themselves.
func FuzzWindowedState(f *testing.F) {
	w := NewWindowed()
	for win := 0; win < 2; win++ {
		for i, rt := range []string{"float32", "int8", "pruned"} {
			for item := 0; item < 3; item++ {
				pred := (item + i*win) % 3 // int8 and pruned flip some cells in window 1
				w.Add(win, &Record{ItemID: item, Angle: item % 2, TrueClass: item, Env: "phone-a", Runtime: rt, Pred: pred, TopK: []int{pred, 2}})
				w.Add(win, &Record{ItemID: item, Angle: item % 2, TrueClass: item, Env: "phone-b", Runtime: rt, Pred: item})
			}
		}
	}
	data, err := w.MarshalState()
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 1
	f.Add(data)
	f.Add(flipped)
	f.Add([]byte(`{"version":1,"windows":[{"window":9223372036854775807,"state":{"version":1,"cells":[{"env":"e","runtimes":[],"bits":[]}]}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got := NewWindowed()
		if got.UnmarshalState(data) != nil {
			return
		}
		for _, i := range got.Windows() {
			got.Snapshot(i)
			got.Outcomes(i)
		}
		enc, err := got.MarshalState()
		if err != nil {
			t.Fatalf("accepted state does not marshal: %v", err)
		}
		back := NewWindowed()
		if err := back.UnmarshalState(enc); err != nil {
			t.Fatalf("re-encoded state rejected: %v\n%s", err, enc)
		}
		if enc2, err := back.MarshalState(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("marshal∘unmarshal is not a fixed point (err %v):\n%s\nvs\n%s", err, enc2, enc)
		}
	})
}
