package data

import (
	"math"

	"dgs/internal/tensor"
)

// hash2 mixes a split tag and example index into an RNG seed so each
// example's noise is deterministic and independent.
func hash2(tag, i uint64) uint64 {
	x := tag*0x9E3779B97F4A7C15 ^ (i+1)*0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x
}

// SyntheticImages is a CIFAR-like deterministic image classification task:
// each class has a smooth random prototype image; an example is its class
// prototype under a small random translation plus Gaussian pixel noise.
// Difficulty is controlled by Noise; the task is CNN-learnable but not
// linearly trivial, so optimizer quality differences show up in accuracy.
type SyntheticImages struct {
	C, H, W  int
	NClasses int
	Train    int
	Test     int
	// Noise is the per-pixel Gaussian noise stddev.
	Noise float32
	// MaxShift is the translation magnitude in pixels.
	MaxShift int

	protos []float32 // NClasses × C×H×W
	seed   uint64
}

// SyntheticConfig parameterises NewSyntheticImages.
type SyntheticConfig struct {
	C, H, W, Classes, Train, Test int
	Noise                         float32
	MaxShift                      int
	Seed                          uint64
}

// CIFARLike returns the configuration used as the Cifar10 stand-in:
// 3×16×16 images, 10 classes. (16×16 rather than 32×32 keeps a full
// multi-method scaling sweep within CPU budget while preserving the conv
// structure.)
func CIFARLike(seed uint64) SyntheticConfig {
	return SyntheticConfig{C: 3, H: 16, W: 16, Classes: 10, Train: 4096, Test: 1024, Noise: 0.55, MaxShift: 2, Seed: seed}
}

// ImageNetLike returns the larger, harder stand-in for ILSVRC2012:
// more classes, bigger inputs, more noise.
func ImageNetLike(seed uint64) SyntheticConfig {
	return SyntheticConfig{C: 3, H: 24, W: 24, Classes: 100, Train: 16384, Test: 2048, Noise: 0.65, MaxShift: 3, Seed: seed}
}

// NewSyntheticImages builds the dataset, generating class prototypes from
// cfg.Seed.
func NewSyntheticImages(cfg SyntheticConfig) *SyntheticImages {
	ds := &SyntheticImages{
		C: cfg.C, H: cfg.H, W: cfg.W,
		NClasses: cfg.Classes, Train: cfg.Train, Test: cfg.Test,
		Noise: cfg.Noise, MaxShift: cfg.MaxShift,
		seed: cfg.Seed,
	}
	rng := tensor.NewRNG(cfg.Seed)
	n := cfg.C * cfg.H * cfg.W
	ds.protos = make([]float32, cfg.Classes*n)
	freq := make([]float64, 6)
	phase := make([]float64, 6)
	for cl := 0; cl < cfg.Classes; cl++ {
		p := ds.protos[cl*n : (cl+1)*n]
		// Smooth prototypes: sum of a few random 2-D sinusoids per channel.
		for ch := 0; ch < cfg.C; ch++ {
			for k := range freq {
				freq[k] = 1 + 3*rng.Float64()
				phase[k] = 2 * math.Pi * rng.Float64()
			}
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					fy := float64(y) / float64(cfg.H)
					fx := float64(x) / float64(cfg.W)
					v := 0.0
					for k := 0; k < len(freq); k += 2 {
						v += math.Sin(2*math.Pi*freq[k]*fy+phase[k]) * math.Cos(2*math.Pi*freq[k+1]*fx+phase[k+1])
					}
					p[ch*cfg.H*cfg.W+y*cfg.W+x] = float32(v / 3)
				}
			}
		}
	}
	return ds
}

// NumTrain returns the train split size.
func (ds *SyntheticImages) NumTrain() int { return ds.Train }

// NumTest returns the test split size.
func (ds *SyntheticImages) NumTest() int { return ds.Test }

// InputLen returns C*H*W.
func (ds *SyntheticImages) InputLen() int { return ds.C * ds.H * ds.W }

// InputShape returns [C H W].
func (ds *SyntheticImages) InputShape() []int { return []int{ds.C, ds.H, ds.W} }

// Classes returns the class count.
func (ds *SyntheticImages) Classes() int { return ds.NClasses }

// Example materialises example i: prototype of class (i mod classes),
// translated and noised deterministically.
func (ds *SyntheticImages) Example(train bool, i int, x []float32) int {
	label := i % ds.NClasses
	tag := uint64(2)
	if train {
		tag = 1
	}
	rng := tensor.NewRNG(hash2(tag^ds.seed, uint64(i)))
	dy := rng.Intn(2*ds.MaxShift+1) - ds.MaxShift
	dx := rng.Intn(2*ds.MaxShift+1) - ds.MaxShift
	p := ds.protos[label*ds.InputLen():]
	hw := ds.H * ds.W
	for ch := 0; ch < ds.C; ch++ {
		for y := 0; y < ds.H; y++ {
			sy := y + dy
			for xx := 0; xx < ds.W; xx++ {
				sx := xx + dx
				var v float32
				if sy >= 0 && sy < ds.H && sx >= 0 && sx < ds.W {
					v = p[ch*hw+sy*ds.W+sx]
				}
				x[ch*hw+y*ds.W+xx] = v + ds.Noise*float32(rng.NormFloat64())
			}
		}
	}
	return label
}

// GaussianMixture is a D-dimensional K-class mixture: class means drawn on a
// sphere, examples are mean + sigma*noise. MLP-learnable; used for fast unit
// and integration tests.
type GaussianMixture struct {
	D, K        int
	Train, Test int
	Sigma       float32

	means []float32
	seed  uint64
}

// NewGaussianMixture creates the mixture with the given geometry.
func NewGaussianMixture(d, k, train, test int, sigma float32, seed uint64) *GaussianMixture {
	g := &GaussianMixture{D: d, K: k, Train: train, Test: test, Sigma: sigma, seed: seed}
	rng := tensor.NewRNG(seed)
	g.means = make([]float32, k*d)
	for c := 0; c < k; c++ {
		m := g.means[c*d : (c+1)*d]
		rng.FillNormal(m, 0, 1)
		// Normalise to the unit sphere, then scale for separation.
		var norm float64
		for _, v := range m {
			norm += float64(v) * float64(v)
		}
		norm = math.Sqrt(norm)
		for i := range m {
			m[i] = float32(2 * float64(m[i]) / norm)
		}
	}
	return g
}

// NumTrain returns the train split size.
func (g *GaussianMixture) NumTrain() int { return g.Train }

// NumTest returns the test split size.
func (g *GaussianMixture) NumTest() int { return g.Test }

// InputLen returns D.
func (g *GaussianMixture) InputLen() int { return g.D }

// InputShape returns [D].
func (g *GaussianMixture) InputShape() []int { return []int{g.D} }

// Classes returns K.
func (g *GaussianMixture) Classes() int { return g.K }

// Example materialises example i.
func (g *GaussianMixture) Example(train bool, i int, x []float32) int {
	label := i % g.K
	tag := uint64(4)
	if train {
		tag = 3
	}
	rng := tensor.NewRNG(hash2(tag^g.seed, uint64(i)))
	m := g.means[label*g.D:]
	for j := 0; j < g.D; j++ {
		x[j] = m[j] + g.Sigma*float32(rng.NormFloat64())
	}
	return label
}

// Spirals is the classic two-arm (or K-arm) spiral problem in 2-D: strongly
// nonlinear decision boundary, useful to show optimizer quality differences
// on a tiny input.
type Spirals struct {
	K           int
	Train, Test int
	Noise       float32
	seed        uint64
}

// NewSpirals creates a K-arm spiral dataset.
func NewSpirals(k, train, test int, noise float32, seed uint64) *Spirals {
	return &Spirals{K: k, Train: train, Test: test, Noise: noise, seed: seed}
}

// NumTrain returns the train split size.
func (s *Spirals) NumTrain() int { return s.Train }

// NumTest returns the test split size.
func (s *Spirals) NumTest() int { return s.Test }

// InputLen returns 2.
func (s *Spirals) InputLen() int { return 2 }

// InputShape returns [2].
func (s *Spirals) InputShape() []int { return []int{2} }

// Classes returns K.
func (s *Spirals) Classes() int { return s.K }

// Example materialises spiral point i.
func (s *Spirals) Example(train bool, i int, x []float32) int {
	label := i % s.K
	tag := uint64(6)
	if train {
		tag = 5
	}
	rng := tensor.NewRNG(hash2(tag^s.seed, uint64(i)))
	r := rng.Float64()                                       // radius in [0,1)
	t := 3*math.Pi*r + 2*math.Pi*float64(label)/float64(s.K) // angle offset per arm
	x[0] = float32(r*math.Cos(t)) + s.Noise*float32(rng.NormFloat64())
	x[1] = float32(r*math.Sin(t)) + s.Noise*float32(rng.NormFloat64())
	return label
}
