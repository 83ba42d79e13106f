package nn

import "dgs/internal/tensor"

// NewMLP builds a multilayer perceptron with the given layer widths
// (in, hidden..., out) and ReLU activations between layers.
func NewMLP(rng *tensor.RNG, widths ...int) *Model {
	if len(widths) < 2 {
		panic("nn: NewMLP needs at least input and output widths")
	}
	var layers []Layer
	for i := 0; i+1 < len(widths); i++ {
		layers = append(layers, NewLinear(layerName("fc", i), widths[i], widths[i+1], rng))
		if i+2 < len(widths) {
			layers = append(layers, NewReLU())
		}
	}
	return NewModel(NewSequential(layers...))
}

func layerName(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// CNNConfig describes a small convolutional classifier.
type CNNConfig struct {
	// InC is the input image's channel count; no layer depends on its
	// spatial size.
	InC int
	// Channels per conv stage (each stage: conv-bn-relu, then 2x2 maxpool).
	Channels []int
	// Classes is the output dimension.
	Classes int
	// BatchNorm enables BN after each conv.
	BatchNorm bool
}

// NewCNN builds conv stages followed by global average pooling and a linear
// classifier.
func NewCNN(rng *tensor.RNG, cfg CNNConfig) *Model {
	var layers []Layer
	inC := cfg.InC
	for i, ch := range cfg.Channels {
		layers = append(layers, NewConv2D(layerName("conv", i), inC, ch, 3, 1, 1, rng))
		if cfg.BatchNorm {
			layers = append(layers, NewBatchNorm2D(layerName("bn", i), ch))
		}
		layers = append(layers, NewReLU())
		layers = append(layers, NewMaxPool2D(2))
		inC = ch
	}
	layers = append(layers, NewGlobalAvgPool2D())
	layers = append(layers, NewLinear("head", inC, cfg.Classes, rng))
	return NewModel(NewSequential(layers...))
}

// ResNetSConfig describes the scaled-down residual network standing in for
// ResNet-18. Each stage halves the spatial size (except the first) and has
// Blocks residual blocks of two 3x3 convolutions with BatchNorm, identity
// shortcuts within a stage and 1x1 projection shortcuts across stages —
// the same per-layer gradient structure DGS interacts with in the paper.
type ResNetSConfig struct {
	// InC is the input image's channel count, as in CNNConfig.
	InC int
	// StageChannels lists the channel width of each stage.
	StageChannels []int
	// Blocks is the residual block count per stage.
	Blocks  int
	Classes int
}

// DefaultResNetS returns the one ResNetS every caller builds: 3 stages of
// width 8/16/32, 1 block each (~16k params), small enough to train in CI
// yet structurally a residual CNN, over 3 input channels; a caller with
// other inputs sets InC.
func DefaultResNetS(classes int) ResNetSConfig {
	return ResNetSConfig{InC: 3, StageChannels: []int{8, 16, 32}, Blocks: 1, Classes: classes}
}

// NewResNetS builds the scaled-down residual network.
func NewResNetS(rng *tensor.RNG, cfg ResNetSConfig) *Model {
	if cfg.Blocks < 1 {
		cfg.Blocks = 1
	}
	var layers []Layer
	inC := cfg.StageChannels[0]
	layers = append(layers,
		NewConv2D("stem.conv", cfg.InC, inC, 3, 1, 1, rng),
		NewBatchNorm2D("stem.bn", inC),
		NewReLU(),
	)
	for si, ch := range cfg.StageChannels {
		for b := 0; b < cfg.Blocks; b++ {
			stride := 1
			var shortcut Layer
			if b == 0 && si > 0 {
				stride = 2
				// Projection shortcut matches channels and stride.
				shortcut = NewSequential(
					NewConv2D(blockName(si, b, "proj"), inC, ch, 1, 2, 0, rng),
					NewBatchNorm2D(blockName(si, b, "projbn"), ch),
				)
			}
			body := NewSequential(
				NewConv2D(blockName(si, b, "conv1"), inC, ch, 3, stride, 1, rng),
				NewBatchNorm2D(blockName(si, b, "bn1"), ch),
				NewReLU(),
				NewConv2D(blockName(si, b, "conv2"), ch, ch, 3, 1, 1, rng),
				NewBatchNorm2D(blockName(si, b, "bn2"), ch),
			)
			layers = append(layers, NewResidual(body, shortcut))
			inC = ch
		}
	}
	layers = append(layers, NewGlobalAvgPool2D())
	layers = append(layers, NewLinear("head", inC, cfg.Classes, rng))
	return NewModel(NewSequential(layers...))
}

func blockName(stage, block int, part string) string {
	return "s" + string(rune('0'+stage)) + ".b" + string(rune('0'+block)) + "." + part
}
