package nn

import (
	"fmt"
	"math"

	"dgs/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over a
// batch of logits (batch, classes) and integer labels, and the gradient of
// the loss with respect to the logits.
//
// The returned gradient is already divided by the batch size, so calling
// Model.Backward with it accumulates mean-gradient contributions — exactly
// the ∇L(θ) the paper's update rules consume.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy expects rank-2 logits, got %v", logits.Shape))
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), batch))
	}
	grad = tensor.New(batch, classes)
	invB := 1 / float64(batch)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		// log-sum-exp with max subtraction for stability
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum) + float64(maxv)
		y := labels[b]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		loss += (logSum - float64(row[y])) * invB
		gRow := grad.Data[b*classes : (b+1)*classes]
		for j, v := range row {
			p := math.Exp(float64(v) - logSum)
			gRow[j] = float32(p * invB)
		}
		gRow[y] -= float32(invB)
	}
	return loss, grad
}
