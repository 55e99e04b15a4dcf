package nn

import (
	"math"

	"repro/internal/tensor"
)

// Softmax converts a batch of logits (N,K) to probabilities, numerically
// stabilized by subtracting the row max.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	checkRank(logits, 2, "Softmax")
	return softmaxInto(tensor.New(logits.Dim(0), logits.Dim(1)), logits)
}

// softmaxInto is Softmax written into p, a tensor of the logits' shape.
func softmaxInto(p, logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Dim(0), logits.Dim(1)
	for i := 0; i < n; i++ {
		row := logits.Data()[i*k : (i+1)*k]
		out := p.Data()[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
	return p
}

// CrossEntropy computes the mean cross-entropy loss over a batch of logits
// (N,K) with integer labels, and the gradient with respect to the logits
// ((softmax − onehot)/N), which is what the classification head backpropagates.
// The gradient is written into grad's storage (tensor.Reuse; nil allocates),
// where the softmax is computed first.
func CrossEntropy(grad, logits *tensor.Tensor, labels []int) (loss float64, _ *tensor.Tensor) {
	checkRank(logits, 2, "CrossEntropy")
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: CrossEntropy labels length mismatch")
	}
	grad = softmaxInto(tensor.Reuse(grad, n, k), logits)
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		g := grad.Data()[i*k : (i+1)*k]
		y := labels[i]
		if y < 0 || y >= k {
			panic("nn: CrossEntropy label out of range")
		}
		loss += -math.Log(math.Max(float64(g[y]), 1e-12))
		for j, v := range g {
			g[j] = v * invN
		}
		g[y] -= invN
	}
	loss /= float64(n)
	return loss, grad
}

// KLStability computes the relative-entropy stability loss of Zheng et al.
// between clean logits z and noisy logits zp:
//
//	Ls = mean_i KL(P(y|x_i) ‖ P(y|x'_i))
//
// It returns the mean loss and gradients with respect to both logit tensors
// (already divided by the batch size), written into dz's and dzp's storage
// (tensor.Reuse; nil allocates), where the two softmaxes are computed first.
// Gradients flow through both branches, matching the paper's training setup
// where the noisy image is a second input to the same weights.
func KLStability(dz, dzp, z, zp *tensor.Tensor) (loss float64, _, _ *tensor.Tensor) {
	checkRank(z, 2, "KLStability")
	n, k := z.Dim(0), z.Dim(1)
	if zp.Dim(0) != n || zp.Dim(1) != k {
		panic("nn: KLStability shape mismatch")
	}
	dz = softmaxInto(tensor.Reuse(dz, n, k), z)
	dzp = softmaxInto(tensor.Reuse(dzp, n, k), zp)
	invN := 1 / float32(n)
	lr := make([]float32, k)
	for i := 0; i < n; i++ {
		// pr and qr are the row's probabilities until the gradients
		// overwrite them, each entry after its last read.
		pr, gz := dz.Data()[i*k:(i+1)*k], dz.Data()[i*k:(i+1)*k]
		qr, gzp := dzp.Data()[i*k:(i+1)*k], dzp.Data()[i*k:(i+1)*k]
		// log-ratio terms and the row loss
		var rowLoss float64
		for j := range pr {
			pj := math.Max(float64(pr[j]), 1e-12)
			qj := math.Max(float64(qr[j]), 1e-12)
			l := math.Log(pj) - math.Log(qj)
			lr[j] = float32(l)
			rowLoss += float64(float64(pr[j]) * l)
		}
		loss += rowLoss
		// dL/dzp_j = (q_j − p_j)/N
		for j := range gzp {
			gzp[j] = (qr[j] - pr[j]) * invN
		}
		// dL/dz_j = p_j (lr_j − Σ_i p_i lr_i)/N
		var mean float32
		for j := range pr {
			mean += float32(pr[j] * lr[j])
		}
		for j := range gz {
			gz[j] = pr[j] * (lr[j] - mean) * invN
		}
	}
	loss /= float64(n)
	return loss, dz, dzp
}

// EmbeddingL2 computes the squared Euclidean embedding-distance stability
// loss mean_i ‖f(x_i) − f(x'_i)‖² and its gradients with respect to both
// embedding tensors (shape (N,D)), written into de's and dep's storage
// (tensor.Reuse; nil allocates).
func EmbeddingL2(de, dep, e, ep *tensor.Tensor) (loss float64, _, _ *tensor.Tensor) {
	checkRank(e, 2, "EmbeddingL2")
	n, d := e.Dim(0), e.Dim(1)
	if ep.Dim(0) != n || ep.Dim(1) != d {
		panic("nn: EmbeddingL2 shape mismatch")
	}
	de, dep = tensor.Reuse(de, n, d), tensor.Reuse(dep, n, d)
	invN := 1 / float32(n)
	for i := 0; i < n*d; i++ {
		diff := e.Data()[i] - ep.Data()[i]
		loss += float64(float64(diff) * float64(diff))
		de.Data()[i] = 2 * diff * invN
		dep.Data()[i] = -2 * diff * invN
	}
	loss /= float64(n)
	return loss, de, dep
}

// Argmax returns the index of the largest value in row i of a (N,K) tensor.
func Argmax(t *tensor.Tensor, i int) int {
	k := t.Dim(1)
	row := t.Data()[i*k : (i+1)*k]
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// TopK returns the indices of the k largest values in row i of a (N,K)
// tensor, in descending order of value.
func TopK(t *tensor.Tensor, i, k int) []int {
	width := t.Dim(1)
	if k > width {
		k = width
	}
	row := t.Data()[i*width : (i+1)*width]
	idx := make([]int, 0, k)
	used := make([]bool, width)
	for len(idx) < k {
		best := -1
		for j, v := range row {
			if used[j] {
				continue
			}
			if best < 0 || v > row[best] {
				best = j
			}
		}
		used[best] = true
		idx = append(idx, best)
	}
	return idx
}
