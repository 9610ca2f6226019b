// Package neural implements the high-level neural-network decoder class
// the paper surveys in §IV (Chamberland & Ronagh; Varsamopoulos et
// al.): a simple low-level decoder proposes a correction, and a small
// feed-forward network, trained on simulated syndromes, predicts
// whether that correction leaves a logical fault — in which case a
// logical operator is appended. It is the Fig. 11 "NNet" baseline made
// concrete, in pure Go (network, backpropagation and training included).
package neural

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a one-hidden-layer feed-forward network with tanh hidden
// activation and a sigmoid output — ample capacity for the syndrome
// classification task at small distances.
type MLP struct {
	in, hidden int
	w1         [][]float64 // [hidden][in]
	b1         []float64
	w2         []float64 // [hidden]
	b2         float64
}

// NewMLP initializes the network with scaled uniform weights.
func NewMLP(in, hidden int, rng *rand.Rand) (*MLP, error) {
	if in < 1 || hidden < 1 {
		return nil, fmt.Errorf("neural: invalid shape %dx%d", in, hidden)
	}
	m := &MLP{in: in, hidden: hidden}
	scale1 := math.Sqrt(1 / float64(in))
	scale2 := math.Sqrt(1 / float64(hidden))
	m.w1 = make([][]float64, hidden)
	m.b1 = make([]float64, hidden)
	m.w2 = make([]float64, hidden)
	for h := 0; h < hidden; h++ {
		m.w1[h] = make([]float64, in)
		for i := range m.w1[h] {
			m.w1[h][i] = (rng.Float64()*2 - 1) * scale1
		}
		m.w2[h] = (rng.Float64()*2 - 1) * scale2
	}
	return m, nil
}

// Forward returns the network output in (0, 1) and the hidden
// activations (needed for backprop).
func (m *MLP) Forward(x []float64) (float64, []float64) {
	h := make([]float64, m.hidden)
	for j := 0; j < m.hidden; j++ {
		s := m.b1[j]
		for i, xi := range x {
			s += m.w1[j][i] * xi
		}
		h[j] = math.Tanh(s)
	}
	o := m.b2
	for j, hj := range h {
		o += m.w2[j] * hj
	}
	return 1 / (1 + math.Exp(-o)), h
}

// Predict returns the output probability for the input: Forward's
// sums in Forward's order, without keeping the hidden activations.
func (m *MLP) Predict(x []float64) float64 {
	o := m.b2
	for j := 0; j < m.hidden; j++ {
		s := m.b1[j]
		for i, xi := range x {
			s += m.w1[j][i] * xi
		}
		o += m.w2[j] * math.Tanh(s)
	}
	return 1 / (1 + math.Exp(-o))
}

// Step performs one stochastic-gradient step on the cross-entropy loss
// for a single (x, label) sample and returns the loss before the step.
func (m *MLP) Step(x []float64, label float64, lr float64) float64 {
	y, h := m.Forward(x)
	eps := 1e-12
	loss := -label*math.Log(y+eps) - (1-label)*math.Log(1-y+eps)
	// dLoss/dPreactivation of the output is (y - label) for
	// sigmoid + cross-entropy.
	do := y - label
	for j := 0; j < m.hidden; j++ {
		dh := do * m.w2[j] * (1 - h[j]*h[j])
		m.w2[j] -= lr * do * h[j]
		for i, xi := range x {
			m.w1[j][i] -= lr * dh * xi
		}
		m.b1[j] -= lr * dh
	}
	m.b2 -= lr * do
	return loss
}
