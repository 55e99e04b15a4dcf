package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshot captures a model's trainable weights and BatchNorm running
// statistics so fine-tuning experiments can restore the shared pre-trained
// baseline before each run.
type Snapshot struct {
	weights [][]float32
	bnMean  [][]float32
	bnVar   [][]float32
}

// collectBN walks a layer tree and returns the BatchNorm layers in a
// deterministic order.
func collectBN(l Layer) []*BatchNorm {
	var out []*BatchNorm
	switch v := l.(type) {
	case *BatchNorm:
		out = append(out, v)
	case *Sequential:
		for _, c := range v.Layers {
			out = append(out, collectBN(c)...)
		}
	case *Residual:
		out = append(out, collectBN(v.Body)...)
	}
	return out
}

// TakeSnapshot copies the model state.
func (m *Model) TakeSnapshot() *Snapshot {
	s := &Snapshot{}
	for _, p := range m.Params() {
		w := make([]float32, p.W.Len())
		copy(w, p.W.Data())
		s.weights = append(s.weights, w)
	}
	for _, bn := range collectBN(m.Backbone) {
		mean := make([]float32, len(bn.RunningMean))
		copy(mean, bn.RunningMean)
		vr := make([]float32, len(bn.RunningVar))
		copy(vr, bn.RunningVar)
		s.bnMean = append(s.bnMean, mean)
		s.bnVar = append(s.bnVar, vr)
	}
	return s
}

// Restore writes a snapshot back into the model. It panics if the snapshot
// was taken from a differently-shaped model.
func (m *Model) Restore(s *Snapshot) {
	params := m.Params()
	if len(params) != len(s.weights) {
		panic(fmt.Sprintf("nn: Restore: %d params vs %d snapshot entries", len(params), len(s.weights)))
	}
	for i, p := range params {
		if p.W.Len() != len(s.weights[i]) {
			panic("nn: Restore: parameter size mismatch")
		}
		copy(p.W.Data(), s.weights[i])
		p.ZeroGrad()
	}
	bns := collectBN(m.Backbone)
	if len(bns) != len(s.bnMean) {
		panic("nn: Restore: BatchNorm count mismatch")
	}
	for i, bn := range bns {
		copy(bn.RunningMean, s.bnMean[i])
		copy(bn.RunningVar, s.bnVar[i])
	}
}

const snapshotMagic = "EDGESTAB01"

// WriteTo serializes the snapshot in a compact little-endian binary format.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	writeSection := func(sec [][]float32) {
		binary.Write(&buf, binary.LittleEndian, uint32(len(sec)))
		for _, vec := range sec {
			binary.Write(&buf, binary.LittleEndian, uint32(len(vec)))
			binary.Write(&buf, binary.LittleEndian, vec)
		}
	}
	writeSection(s.weights)
	writeSection(s.bnMean)
	writeSection(s.bnVar)
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadSnapshot parses a snapshot previously written with WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("nn: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("nn: bad snapshot magic %q", magic)
	}
	readSection := func() ([][]float32, error) {
		var count uint32
		if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
			return nil, err
		}
		if count > 1<<20 {
			return nil, fmt.Errorf("nn: snapshot section too large: %d", count)
		}
		sec := make([][]float32, count)
		for i := range sec {
			var n uint32
			if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
				return nil, err
			}
			if n > 1<<28 {
				return nil, fmt.Errorf("nn: snapshot vector too large: %d", n)
			}
			vec := make([]float32, n)
			if err := binary.Read(r, binary.LittleEndian, vec); err != nil {
				return nil, err
			}
			sec[i] = vec
		}
		return sec, nil
	}
	s := &Snapshot{}
	var err error
	if s.weights, err = readSection(); err != nil {
		return nil, fmt.Errorf("nn: snapshot weights: %w", err)
	}
	if s.bnMean, err = readSection(); err != nil {
		return nil, fmt.Errorf("nn: snapshot bn means: %w", err)
	}
	if s.bnVar, err = readSection(); err != nil {
		return nil, fmt.Errorf("nn: snapshot bn vars: %w", err)
	}
	return s, nil
}
