package tensor

import "math"

// RNG is a small deterministic xorshift-based generator used so that
// experiments reproduce bit-for-bit across machines and Go versions
// (math/rand's stream is not guaranteed stable across releases).
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (0 is remapped internally).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0,1). Test seam: the randomized tests
// of nn, ps, sparse, trainer and tensor draw their inputs from it.
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0,n). Test seam: the randomized
// tests of sparse, agg and tensor draw their orders from it.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillNormal fills x with normal deviates of the given mean and stddev.
func (r *RNG) FillNormal(x []float32, mean, std float32) {
	for i := range x {
		x[i] = mean + std*float32(r.NormFloat64())
	}
}

// KaimingFill initialises weights with He-normal scaling for fanIn inputs,
// the standard init for ReLU networks.
func (r *RNG) KaimingFill(x []float32, fanIn int) {
	if fanIn < 1 {
		fanIn = 1
	}
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	r.FillNormal(x, 0, std)
}
