package main

import (
	"math"
	"math/bits"
)

// rng is splitmix64: tiny, allocation-free and the same on every Go version,
// so a seed names one op stream for good.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// mix64 is the splitmix64 finaliser, a bijection on uint64: distinct ids give
// distinct keys, scattered over the key space.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0,n) by multiply-high.
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// streamSeed derives the seed of one client's stream from the run seed, the
// workload and the client index, so streams are decorrelated but reproducible.
func streamSeed(seed uint64, workload string, client int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return mix64(mix64(seed) ^ h ^ uint64(client+1)*0x9e3779b97f4a7c15)
}

// zipf is the YCSB zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases"): rank 0 is the most popular item.
type zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
}

func zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n, theta), half: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - (1+z.half)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// topShare is the analytic probability mass of the k most popular ranks.
func (z *zipf) topShare(k uint64) float64 { return zeta(k, z.theta) / z.zetan }
