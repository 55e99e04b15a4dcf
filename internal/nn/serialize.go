package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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

// Clone returns a replica of the model: the same layers with their weights
// and BatchNorm statistics copied, as Restore would leave a fresh
// architecture after TakeSnapshot, but built without drawing an
// initialisation that the copy would overwrite. The replica carries weights
// only: no gradient, no step buffer, no compiled plan.
func (m *Model) Clone() *Model {
	return &Model{
		Backbone: cloneLayer(m.Backbone).(*Sequential),
		Embed:    cloneLayer(m.Embed).(*Dense),
		Head:     cloneLayer(m.Head).(*Dense),
		Classes:  m.Classes,
		EmbedDim: m.EmbedDim,
		InputHW:  m.InputHW,
	}
}

func (p *Param) clone() *Param { return &Param{Name: p.Name, W: p.W.Clone()} }

// cloneLayer is Clone for one layer tree.
func cloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *Sequential:
		s := &Sequential{Layers: make([]Layer, len(v.Layers))}
		for i, c := range v.Layers {
			s.Layers[i] = cloneLayer(c)
		}
		return s
	case *Residual:
		return &Residual{Body: cloneLayer(v.Body)}
	case *Conv2D:
		return &Conv2D{Weight: v.Weight.clone(), dims: v.dims, outC: v.outC}
	case *DepthwiseConv2D:
		return &DepthwiseConv2D{Weight: v.Weight.clone(), ch: v.ch, kh: v.kh, kw: v.kw, stride: v.stride, pad: v.pad}
	case *Dense:
		return &Dense{Weight: v.Weight.clone(), Bias: v.Bias.clone(), ReLU: v.ReLU, in: v.in, out: v.out}
	case *BatchNorm:
		return &BatchNorm{
			Gamma: v.Gamma.clone(), Beta: v.Beta.clone(), ReLU6: v.ReLU6,
			RunningMean: slices.Clone(v.RunningMean), RunningVar: slices.Clone(v.RunningVar),
			Momentum: v.Momentum, Eps: v.Eps, ch: v.ch,
		}
	case *GlobalAvgPool:
		return NewGlobalAvgPool()
	}
	panic(fmt.Sprintf("nn: Clone: no replica for layer %T", l))
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
